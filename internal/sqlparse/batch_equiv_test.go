package sqlparse

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"flordb/internal/relation"
)

// The tests in this file pin the batch pipeline to the row-at-a-time
// reference executor, one operator class at a time, reusing the
// TestPlannerEquivalenceRandomized machinery (randomWorkloadDBRows,
// diffResults). Every property runs over the same four-cell matrix
// (forEachEquivCell): the workload database with and without secondary
// indexes, serial and under a four-worker gather — so index paths packed
// into batches, joins over index sources and gathers over full scans are
// each compared with ExecuteScan, which runs the identical statement through
// the row functions. A share of every property's statements runs at
// a random mid-history pin instead, against a reference database holding
// only the rows born by then (prefixDB). mustPlanOps asserts the shapes under
// test really are in the plan. They run under -race via `make test` like
// everything else.

// planEquivDB is one cell of the equivalence matrix.
type planEquivDB struct {
	db      *relation.Database
	indexed bool
	opts    ExecOptions
	checked int

	// cat is what the planned pipeline runs against and ref what the
	// reference does: both a latest pin of db, or a pin of db at an epoch
	// and its prefixDB.
	cat, ref *relation.Snapshot
	rng      *rand.Rand // picks the pinned share and its epochs
	prefixes map[int64]*relation.Snapshot
}

// parallel reports whether the cell's full scans run under a gather.
func (c *planEquivDB) parallel() bool { return c.opts.ScanWorkers > 1 }

// iters scales a property's iteration count to the cell: the gather cells
// carry a store of more than two morsels, so each query costs ~17x more.
func (c *planEquivDB) iters(n int) int {
	if c.parallel() {
		return n / 4
	}
	return n
}

// forEachEquivCell runs body over {indexed, unindexed} x {ScanWorkers 1, 4}.
// The gather cells lower parallelMinRows and size the logs store past two
// morsels so the planner's gather rule fires on every full scan.
func forEachEquivCell(t *testing.T, body func(t *testing.T, cell *planEquivDB)) {
	for _, indexed := range []bool{true, false} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("indexed=%v/workers=%d", indexed, workers), func(t *testing.T) {
				cell := &planEquivDB{indexed: indexed, opts: ExecOptions{ScanWorkers: workers},
					rng: rand.New(rand.NewSource(int64(workers))), prefixes: map[int64]*relation.Snapshot{}}
				rows := 500
				if cell.parallel() {
					forceGather(t)
					rows = 2*morselRows + 500
				}
				cell.db = randomWorkloadDBRows(t, indexed, rows)
				cell.cat = cell.db.SnapshotLatest()
				cell.ref = cell.cat
				body(t, cell)
			})
		}
	}
}

// forceGather makes the gather rule fire on any store of two or more
// morsels for the rest of the test: at least four Ps, no minimum row count.
func forceGather(t *testing.T) {
	t.Helper()
	if old := runtime.GOMAXPROCS(0); old < 4 {
		runtime.GOMAXPROCS(4)
		t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	}
	old := parallelMinRows
	parallelMinRows = 1
	t.Cleanup(func() { parallelMinRows = old })
}

// prefixDB is the reference's view of db at epoch e, computed without the
// engine's visibility rule: a latest pin of a fresh database holding, per
// base table, the rows whose born epoch is at or below e, found by testing
// every row. An error in the prefix bound a pin reads through cannot cancel
// out against it.
func prefixDB(t *testing.T, db *relation.Database, e int64) *relation.Snapshot {
	t.Helper()
	out := relation.NewDatabase()
	for _, name := range db.SnapshotLatest().Names() {
		src, ok := db.Table(name)
		if !ok {
			continue // virtual
		}
		dst, err := out.CreateTable(name, src.Schema())
		if err != nil {
			t.Fatal(err)
		}
		rows, born := src.Versions()
		var keep []relation.Row
		for i, r := range rows {
			if born[i] <= e {
				keep = append(keep, r)
			}
		}
		// Born at epoch 1, the write epoch of the fresh database, so the
		// latest pin below sees every kept row.
		if err := dst.LoadVersions(keep, slices.Repeat([]int64{1}, len(keep))); err != nil {
			t.Fatal(err)
		}
	}
	return out.SnapshotLatest()
}

// runEquivalence executes q through the planned pipeline and the reference
// executor and compares row multisets (planEquivDB.diff) — one statement in
// four at a random epoch, from a pin of the cell's database against the
// prefixDB at that epoch, up to and including the committed epoch, past
// which the builder leaves rows in flight. Error presence must
// agree too: that is not the general contract (DESIGN §4 — access paths and
// pushdown decide which rows reach a failing expression;
// TestDeferredErrorContract pins both directions), but the generators here
// emit no predicate whose failure depends on the row that reaches it, and for
// those it must hold.
func runEquivalence(t *testing.T, cell *planEquivDB, q string) {
	t.Helper()
	stmt, err := Parse(q)
	if err != nil {
		t.Fatalf("generated unparsable query %q: %v", q, err)
	}
	c, at := *cell, "latest"
	if cell.rng.Intn(4) == 0 {
		e := cell.rng.Int63n(cell.db.Epoch() + 1)
		snap, err := cell.db.SnapshotAt(e)
		if err != nil {
			t.Fatal(err)
		}
		if cell.prefixes[e] == nil {
			cell.prefixes[e] = prefixDB(t, cell.db, e)
		}
		c.cat, c.ref, at = snap, cell.prefixes[e], fmt.Sprintf("epoch %d", e)
	}
	planned, perr := ExecuteOptions(c.cat, stmt, c.opts)
	stmt2, _ := Parse(q) // fresh AST in case execution mutates state
	naive, nerr := ExecuteScan(c.ref, stmt2)
	if (perr == nil) != (nerr == nil) {
		t.Fatalf("query %q at %s: planned err=%v naive err=%v", q, at, perr, nerr)
	}
	if perr != nil {
		return
	}
	if d := c.diff(t, q, stmt, planned, naive); d != "" {
		t.Fatalf("query %q at %s: planned and reference results differ: %s\nplan:\n%s",
			q, at, d, c.explain(t, q))
	}
	cell.checked++
}

// diff compares a planned result with the reference's: exactly, as row
// multisets, unless q's own plan leaves part of the answer undefined. Rows
// reach the sort or the aggregation sink in store order under a serial full
// scan — the reference's order — but in index order under an index path, and
// as merged per-worker partials under a gather. That changes two things, and
// the comparison gives way only for the statements they touch:
//
//   - sum/avg add floats in another order, so under an index path, a
//     gather or merged page partials (EXPLAIN's [pages]) their statements
//     compare floats at 9 digits (approxKey);
//   - LIMIT/OFFSET may cut a run of ORDER BY ties elsewhere, so under an
//     index path they compare what stays defined (limitDiff).
func (c *planEquivDB) diff(t *testing.T, q string, stmt *SelectStmt, planned, reference *Result) string {
	t.Helper()
	limited := stmt.Limit >= 0 || stmt.Offset > 0
	floatSums := false
	if ap, err := buildAggPlan(stmt); err == nil {
		for _, call := range ap.rw.calls {
			floatSums = floatSums || call.Name == "sum" || call.Name == "avg"
		}
	}
	if !limited && !floatSums {
		return diffResults(planned, reference)
	}
	plan := c.explain(t, q)
	ops := planOps(plan)
	indexOrder := ops["IndexLookup"]
	key := rowKey
	if floatSums && (indexOrder || ops["Gather"] || strings.Contains(plan, "[pages]")) {
		key = approxKey
	}
	if limited && indexOrder {
		return c.limitDiff(t, stmt, planned, reference, key)
	}
	return diffResultsBy(planned, reference, key)
}

// limitDiff compares the results of a LIMIT/OFFSET statement whose rows reach
// the (stable) sort in another order than the reference's, so that a run of
// ORDER BY ties may be cut elsewhere. Three things stay defined: the row
// count; that the planned rows are rows of the statement without its
// LIMIT/OFFSET (a sub-multiset of the reference's answer to that); and the
// ORDER BY key of every row, in order — compared on the statement with its
// keys in the select list (sortKeyStmt), run through both executors.
func (c *planEquivDB) limitDiff(t *testing.T, stmt *SelectStmt, planned, reference *Result, key func(relation.Row) string) string {
	t.Helper()
	if len(planned.Rows) != len(reference.Rows) {
		return fmt.Sprintf("row counts differ: %d vs %d", len(planned.Rows), len(reference.Rows))
	}
	whole := *stmt
	whole.Limit, whole.Offset = -1, 0
	all, err := ExecuteScan(c.ref, &whole)
	if err != nil {
		t.Fatalf("reference without LIMIT: %v", err)
	}
	left := map[string]int{}
	for _, r := range all.Rows {
		left[key(r)]++
	}
	for _, r := range planned.Rows {
		if left[key(r)]--; left[key(r)] < 0 {
			return fmt.Sprintf("row %s is not in the un-LIMITed reference result", key(r))
		}
	}
	keyed, keyCols := sortKeyStmt(stmt)
	if keyed == nil {
		return ""
	}
	p, err := ExecuteOptions(c.cat, keyed, c.opts)
	if err != nil {
		t.Fatalf("planned with sort keys selected: %v", err)
	}
	r, err := ExecuteScan(c.ref, keyed)
	if err != nil {
		t.Fatalf("reference with sort keys selected: %v", err)
	}
	if len(p.Rows) != len(r.Rows) {
		return fmt.Sprintf("with sort keys selected, row counts differ: %d vs %d", len(p.Rows), len(r.Rows))
	}
	for i := range p.Rows {
		for _, col := range keyCols {
			if pk, rk := key(p.Rows[i][col:col+1]), key(r.Rows[i][col:col+1]); pk != rk {
				return fmt.Sprintf("row %d: ORDER BY key %s vs %s", i, pk, rk)
			}
		}
	}
	return ""
}

// sortKeyStmt returns stmt with every ORDER BY key in its select list, and
// the keys' output positions: a key naming an output column is that column,
// any other expression becomes an extra trailing item. It returns nil when
// there is no key to select, or no list to add to (SELECT *).
func sortKeyStmt(stmt *SelectStmt) (*SelectStmt, []int) {
	if len(stmt.OrderBy) == 0 || len(stmt.Items) == 0 {
		return nil, nil
	}
	out := *stmt
	out.Items = append([]SelectItem(nil), stmt.Items...)
	var cols []int
	for i, oi := range stmt.OrderBy {
		pos := -1
		if cr, ok := oi.Expr.(*ColumnRef); ok && cr.Table == "" {
			for j, it := range stmt.Items {
				if pos < 0 && strings.EqualFold(it.OutputName(), cr.Name) {
					pos = j
				}
			}
		}
		if pos < 0 {
			pos = len(out.Items)
			out.Items = append(out.Items, SelectItem{Expr: oi.Expr, Alias: fmt.Sprintf("__key%d", i)})
		}
		cols = append(cols, pos)
	}
	return &out, cols
}

// explain renders q's plan under the cell's execution options.
func (c *planEquivDB) explain(t *testing.T, q string) string {
	t.Helper()
	stmt, err := Parse("EXPLAIN " + q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ExecuteOptions(c.cat, stmt, c.opts)
	if err != nil {
		t.Fatal(err)
	}
	lines := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		lines[i] = r[0].AsText()
	}
	return strings.Join(lines, "\n")
}

// planOps lists the operator names of a rendered plan.
func planOps(plan string) map[string]bool {
	ops := map[string]bool{}
	for _, line := range strings.Split(plan, "\n") {
		if f := strings.Fields(line); len(f) > 0 {
			ops[f[0]] = true
		}
	}
	return ops
}

// mustPlanOps asserts the cell's plan for q contains each named operator.
func mustPlanOps(t *testing.T, cell *planEquivDB, q string, ops ...string) {
	t.Helper()
	plan := cell.explain(t, q)
	have := planOps(plan)
	for _, op := range ops {
		if !have[op] {
			t.Fatalf("plan for %q has no %s operator:\n%s", q, op, plan)
		}
	}
}

// mustScanOps is mustPlanOps for a single-table statement served by a full
// scan in every cell: it additionally expects the Gather in the gather cells.
func mustScanOps(t *testing.T, cell *planEquivDB, q string, ops ...string) {
	t.Helper()
	if cell.parallel() {
		ops = append(ops, "Gather")
	}
	mustPlanOps(t, cell, q, append(ops, "Scan")...)
}

func TestVectorizedFilterEquivalenceRandomized(t *testing.T) {
	forEachEquivCell(t, func(t *testing.T, cell *planEquivDB) {
		rng := rand.New(rand.NewSource(20260729))
		pool := filterConjunctPool(rng)
		for i := 0; i < cell.iters(150); i++ {
			var sb strings.Builder
			sb.WriteString("SELECT * FROM logs")
			n := 1 + rng.Intn(3)
			for j := 0; j < n; j++ {
				if j == 0 {
					sb.WriteString(" WHERE ")
				} else {
					sb.WriteString(" AND ")
				}
				sb.WriteString(pool[rng.Intn(len(pool))]())
			}
			runEquivalence(t, cell, sb.String())
		}
		mustScanOps(t, cell, "SELECT * FROM logs WHERE projid = 'p1'", "Filter")
	})
}

// filterConjunctPool covers every kernel shape (col-lit comparisons both
// operand orders, col-col, IN, BETWEEN, IS NULL, OR of kernels) and the
// fallback shapes (NOT, LIKE, arithmetic that can error at eval time).
func filterConjunctPool(rng *rand.Rand) []func() string {
	return []func() string{
		func() string { return fmt.Sprintf("projid = 'p%d'", rng.Intn(4)) },
		func() string { return fmt.Sprintf("'p%d' = projid", rng.Intn(4)) },
		func() string { return fmt.Sprintf("projid != 'p%d'", rng.Intn(4)) },
		func() string {
			return fmt.Sprintf("value_name IN ('acc', '%s')", []string{"recall", "loss"}[rng.Intn(2)])
		},
		func() string { return "value_name NOT IN ('acc', 'f1')" },
		func() string { return fmt.Sprintf("tstamp BETWEEN %d AND %d", rng.Intn(50), rng.Intn(50)) },
		func() string { return fmt.Sprintf("tstamp NOT BETWEEN %d AND %d", rng.Intn(50), rng.Intn(50)) },
		func() string { return fmt.Sprintf("tstamp > %d", rng.Intn(50)) },
		func() string { return fmt.Sprintf("%d >= tstamp", rng.Intn(50)) },
		func() string { return fmt.Sprintf("value > 0.%d", rng.Intn(9)) },
		func() string { return "value > tstamp" },
		func() string { return "value IS NOT NULL" },
		func() string { return "tstamp IS NULL" },
		func() string { return fmt.Sprintf("(projid = 'p1' OR tstamp > %d)", rng.Intn(50)) },
		func() string { return "(value_name = 'acc' OR value IS NULL)" },
		func() string { return fmt.Sprintf("NOT (tstamp = %d)", rng.Intn(50)) },
		func() string { return "projid LIKE 'p%'" },
		func() string { return fmt.Sprintf("value * 2 > 0.%d", rng.Intn(9)) },
		func() string { return "projid = NULL" },
	}
}

func TestVectorizedProjectEquivalenceRandomized(t *testing.T) {
	forEachEquivCell(t, testProjectEquivalence)
}

func testProjectEquivalence(t *testing.T, cell *planEquivDB) {
	rng := rand.New(rand.NewSource(20260730))
	selects := []string{
		"SELECT projid, value_name, value FROM logs",
		"SELECT value * 2 AS v2, tstamp + 1 AS t1 FROM logs",
		"SELECT upper(projid) AS up, length(value_name) AS ln FROM logs",
		"SELECT coalesce(value, 0.0) AS cv, value IS NULL AS isn FROM logs",
		"SELECT projid + value_name AS joined, abs(value - 1) AS d FROM logs",
		"SELECT DISTINCT projid, value_name FROM logs",
		"SELECT projid FROM logs ORDER BY value_name, tstamp DESC LIMIT 17",
		"SELECT tstamp FROM logs ORDER BY value DESC LIMIT 100 OFFSET 5",
	}
	for i := 0; i < cell.iters(100); i++ {
		q := selects[rng.Intn(len(selects))]
		if rng.Intn(2) == 0 {
			q = strings.Replace(q, " FROM logs", fmt.Sprintf(" FROM logs WHERE tstamp > %d", rng.Intn(40)), 1)
		}
		runEquivalence(t, cell, q)
	}
	mustScanOps(t, cell, "SELECT value * 2 AS v2 FROM logs", "Project")
}

func TestVectorizedAggregateEquivalenceRandomized(t *testing.T) {
	forEachEquivCell(t, testAggregateEquivalence)
}

func testAggregateEquivalence(t *testing.T, cell *planEquivDB) {
	rng := rand.New(rand.NewSource(20260731))
	aggQueries := []string{
		"SELECT value_name, count(*) AS n FROM logs GROUP BY value_name",
		"SELECT projid, count(value) AS cv, sum(value) AS sv, avg(value) AS av FROM logs GROUP BY projid",
		"SELECT value_name, min(value) AS mn, max(value) AS mx FROM logs GROUP BY value_name",
		"SELECT count(*) AS n, avg(value) AS m FROM logs",
		// References no columns at all: the batch scan materializes nothing
		// and only counts its visible prefix (full pruning).
		"SELECT count(*) AS n FROM logs",
		"SELECT projid, value_name, count(*) AS n FROM logs GROUP BY projid, value_name",
		"SELECT tstamp, count(*) AS n FROM logs GROUP BY tstamp HAVING count(*) > 2",
		"SELECT value_name, sum(value * 2) AS s2 FROM logs GROUP BY value_name ORDER BY s2 DESC",
		"SELECT projid, count(*) AS n FROM logs GROUP BY projid ORDER BY n DESC LIMIT 2",
	}
	for i := 0; i < cell.iters(100); i++ {
		q := aggQueries[rng.Intn(len(aggQueries))]
		if rng.Intn(2) == 0 {
			q = strings.Replace(q, " FROM logs", fmt.Sprintf(" FROM logs WHERE tstamp <= %d", rng.Intn(50)), 1)
		}
		runEquivalence(t, cell, q)
	}
	agg := "Aggregate"
	if cell.parallel() {
		agg = "PartialAggregate"
	}
	mustScanOps(t, cell, "SELECT value_name, count(*) AS n FROM logs GROUP BY value_name", agg)
}

func TestVectorizedJoinProbeEquivalenceRandomized(t *testing.T) {
	forEachEquivCell(t, func(t *testing.T, cell *planEquivDB) {
		rng := rand.New(rand.NewSource(20260801))
		for i := 0; i < cell.iters(150); i++ {
			q := randomQuery(rng)
			if !strings.Contains(q, "JOIN") {
				continue
			}
			runEquivalence(t, cell, q)
		}
		if cell.checked < cell.iters(20) {
			t.Fatalf("only %d join queries checked; generator drifted", cell.checked)
		}
		// Joins never gather, whatever the cell.
		q := "SELECT l.value, r.vid FROM logs l JOIN runs r ON l.tstamp = r.tstamp WHERE l.projid = 'p1'"
		mustPlanOps(t, cell, q, "HashJoin", "Scan")
		if strings.Contains(cell.explain(t, q), "Gather") {
			t.Fatalf("join plan gathers:\n%s", cell.explain(t, q))
		}
		if cell.indexed {
			mustPlanOps(t, cell, q+" AND l.value_name = 'acc'", "HashJoin", "IndexLookup")
		}
	})
}
