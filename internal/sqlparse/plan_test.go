package sqlparse

import (
	"fmt"
	"math/rand"
	"regexp"
	"sort"
	"strings"
	"testing"

	"flordb/internal/record"
	"flordb/internal/relation"
)

// indexedDB is testDB plus the secondary indexes the planner exploits.
func indexedDB(t *testing.T) *relation.Database {
	t.Helper()
	db := testDB(t)
	logs, _ := db.Table("logs")
	if _, err := logs.CreateHashIndex("projid", "value_name"); err != nil {
		t.Fatal(err)
	}
	if _, err := logs.CreateOrderedIndex("tstamp"); err != nil {
		t.Fatal(err)
	}
	runs, _ := db.Table("runs")
	if _, err := runs.CreateHashIndex("vid"); err != nil {
		t.Fatal(err)
	}
	if _, err := runs.CreateOrderedIndex("tstamp"); err != nil {
		t.Fatal(err)
	}
	return db
}

func explain(t *testing.T, db *relation.Database, q string) string {
	t.Helper()
	res := mustRun(t, db, "EXPLAIN "+q)
	var lines []string
	for _, r := range res.Rows {
		lines = append(lines, r[0].AsText())
	}
	return strings.Join(lines, "\n")
}

func TestExplainPointQueryUsesIndexLookup(t *testing.T) {
	// The acceptance query from the issue, over the real Figure-1 schema.
	db := relation.NewDatabase()
	if _, err := record.CreateTables(db); err != nil {
		t.Fatal(err)
	}
	plan := explain(t, db, "SELECT value FROM logs WHERE projid = 'p' AND value_name = 'acc'")
	if !strings.Contains(plan, "IndexLookup logs via hash(projid, value_name) = ('p', 'acc')") {
		t.Fatalf("plan does not use the index:\n%s", plan)
	}
	if strings.Contains(plan, "Scan") {
		t.Fatalf("plan still scans:\n%s", plan)
	}
}

func TestExplainRangeQueryUsesOrderedIndex(t *testing.T) {
	db := indexedDB(t)
	plan := explain(t, db, "SELECT value FROM logs WHERE tstamp BETWEEN 1 AND 2 AND value_name = 'acc'")
	if !strings.Contains(plan, "IndexRange logs via ordered(tstamp): tstamp >= 1 AND tstamp <= 2") {
		t.Fatalf("plan does not range-scan the ordered index:\n%s", plan)
	}
	// The non-sargable part must survive as a residual filter.
	if !strings.Contains(plan, "Filter (value_name = 'acc')") {
		t.Fatalf("residual filter missing:\n%s", plan)
	}

	// Bounds from >/>= conjuncts combine, exclusivity preserved.
	plan = explain(t, db, "SELECT value FROM logs WHERE tstamp > 1 AND tstamp <= 3")
	if !strings.Contains(plan, "tstamp > 1 AND tstamp <= 3") {
		t.Fatalf("bounds not combined:\n%s", plan)
	}
}

func TestExplainInListExpandsIndexKeys(t *testing.T) {
	db := indexedDB(t)
	plan := explain(t, db, "SELECT value FROM logs WHERE projid = 'pdf' AND value_name IN ('acc', 'recall')")
	if !strings.Contains(plan, "IndexLookup logs via hash(projid, value_name) IN (('pdf', 'acc'), ('pdf', 'recall'))") {
		t.Fatalf("IN not expanded into index keys:\n%s", plan)
	}
}

func TestExplainJoinPushdownAndBuildSide(t *testing.T) {
	db := indexedDB(t)
	plan := explain(t, db, `SELECT l.value FROM logs l JOIN runs r ON l.tstamp = r.tstamp
		WHERE l.projid = 'pdf' AND l.value_name = 'acc' AND r.vid = 'v2'`)
	if !strings.Contains(plan, "HashJoin") {
		t.Fatalf("no hash join:\n%s", plan)
	}
	// Both sides got their predicates pushed into index lookups below the join.
	if !strings.Contains(plan, "IndexLookup logs AS l via hash(projid, value_name)") {
		t.Fatalf("left pushdown missing:\n%s", plan)
	}
	if !strings.Contains(plan, "IndexLookup runs AS r via hash(vid) = ('v2')") {
		t.Fatalf("right pushdown missing:\n%s", plan)
	}
	// Nothing left to filter above the join.
	if strings.Contains(plan, "Filter") {
		t.Fatalf("unexpected residual filter:\n%s", plan)
	}
}

func TestExplainDoesNotExecute(t *testing.T) {
	db := indexedDB(t)
	calls := 0
	vt := &relation.FuncVirtualTable{
		TableName: "vtab",
		TableSchema: relation.MustSchema(
			relation.Column{Name: "k", Type: relation.TInt},
		),
		RowsFn: func() []relation.Row {
			calls++
			return nil
		},
	}
	if err := db.RegisterVirtual(vt); err != nil {
		t.Fatal(err)
	}
	mustRun(t, db, "EXPLAIN SELECT k FROM vtab WHERE k > 0")
	mustRun(t, db, "EXPLAIN SELECT l.value FROM logs l JOIN vtab v ON l.tstamp = v.k")
	if calls != 0 {
		t.Fatalf("EXPLAIN materialized the virtual table %d times", calls)
	}
	// Sanity: real execution does materialize it.
	mustRun(t, db, "SELECT k FROM vtab")
	if calls != 1 {
		t.Fatalf("execution should materialize once, got %d", calls)
	}
}

func TestNonSargableShapesStayResidual(t *testing.T) {
	db := indexedDB(t)
	for _, q := range []string{
		"SELECT value FROM logs WHERE projid = 'pdf' OR value_name = 'acc'", // OR
		"SELECT value FROM logs WHERE value_name NOT IN ('acc')",            // NOT IN
		"SELECT value FROM logs WHERE lower(projid) = 'pdf'",                // func of col
		"SELECT value FROM logs WHERE projid = value_name",                  // col = col
		"SELECT value FROM logs WHERE projid = NULL",                        // NULL literal
	} {
		plan := explain(t, db, q)
		if strings.Contains(plan, "IndexLookup") || strings.Contains(plan, "IndexRange") {
			t.Fatalf("%s\nshould not be index-backed:\n%s", q, plan)
		}
	}
	// And semantics hold: col = NULL matches nothing.
	if res := mustRun(t, db, "SELECT value FROM logs WHERE projid = NULL"); len(res.Rows) != 0 {
		t.Fatalf("projid = NULL returned %d rows", len(res.Rows))
	}
}

func TestJoinResidualErrorPropagates(t *testing.T) {
	// A deferred evaluation error in a join's residual ON predicate was
	// silently swallowed before the planner rework: only the outermost
	// filter's error slot was checked. '-' on text operands fails at eval
	// time, after the plan compiles.
	db := indexedDB(t)
	_, err := Run(db, `SELECT l.value FROM logs l JOIN runs r ON l.tstamp = r.tstamp
		AND l.value - r.vid = 0`)
	if err == nil || !strings.Contains(err.Error(), "non-numeric") {
		t.Fatalf("join residual eval error not propagated, got %v", err)
	}
	// The naive executor propagates it too.
	stmt, perr := Parse(`SELECT l.value FROM logs l JOIN runs r ON l.tstamp = r.tstamp
		AND l.value - r.vid = 0`)
	if perr != nil {
		t.Fatal(perr)
	}
	if _, err := ExecuteScan(db, stmt); err == nil {
		t.Fatal("naive executor swallowed the residual error")
	}
}

func TestWhereEvalErrorPropagates(t *testing.T) {
	db := indexedDB(t)
	if _, err := Run(db, "SELECT value FROM logs WHERE value - tstamp = 1"); err == nil {
		t.Fatal("WHERE eval error not propagated")
	}
}

func TestAggregatePathEvalErrorsPropagate(t *testing.T) {
	db := indexedDB(t)
	// HAVING eval error: LIKE on an integer group key fails at eval time and
	// previously turned into a silently empty result.
	_, err := Run(db, "SELECT tstamp, count(*) AS n FROM logs GROUP BY tstamp HAVING tstamp LIKE 'x'")
	if err == nil || !strings.Contains(err.Error(), "LIKE") {
		t.Fatalf("HAVING eval error not propagated: %v", err)
	}
	// Group-key and aggregate-argument eval errors propagate too.
	if _, err := Run(db, "SELECT value - tstamp AS k, count(*) AS n FROM logs GROUP BY value - tstamp"); err == nil {
		t.Fatal("group-key eval error not propagated")
	}
	if _, err := Run(db, "SELECT sum(value - tstamp) AS s FROM logs"); err == nil {
		t.Fatal("aggregate-argument eval error not propagated")
	}
}

// TestDeferredErrorContract pins the deferred-error rule of DESIGN §4: an
// evaluation error surfaces iff a row that reaches the expression raises it,
// and access paths and pushdown decide which rows reach it — so planned and
// reference execution disagree on error presence in both directions. A
// change to either column is a change of contract, not of plumbing.
func TestDeferredErrorContract(t *testing.T) {
	db := randomWorkloadDBRows(t, true, 500)
	for _, tc := range []struct {
		name, q                  string
		plannedErr, referenceErr bool
	}{
		// The ordered index on tstamp returns no row, so the residual never
		// runs; the reference evaluates the whole WHERE on every row.
		{"index path starves the residual",
			"SELECT projid FROM logs WHERE tstamp > 1000 AND value / 0 > 1", false, true},
		// Pushed below the join, the division sees every logs row; above the
		// join no row survives r.vid = 'zzz' to reach it.
		{"pushdown feeds the conjunct",
			"SELECT l.projid FROM logs l JOIN runs r ON l.tstamp = r.tstamp WHERE r.vid = 'zzz' AND l.value / 0 > 1", true, false},
	} {
		stmt, err := Parse(tc.q)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		_, perr := Execute(db, stmt)
		_, rerr := ExecuteScan(db, stmt)
		for _, got := range []struct {
			who  string
			err  error
			want bool
		}{{"planned", perr, tc.plannedErr}, {"reference", rerr, tc.referenceErr}} {
			if (got.err != nil) != got.want {
				t.Errorf("%s: %s error = %v, want error: %v", tc.name, got.who, got.err, got.want)
			}
			if got.err != nil && !strings.Contains(got.err.Error(), "division by zero") {
				t.Errorf("%s: %s failed with %v, want division by zero", tc.name, got.who, got.err)
			}
		}
	}
}

// TestPlannerEquivalenceRandomized is the property test from the acceptance
// criteria: every planned query returns the same multiset of rows as the
// reference full-scan executor, across randomized predicates, joins,
// projections and aggregates — with and without indexes, serial and gathered.
func TestPlannerEquivalenceRandomized(t *testing.T) {
	forEachEquivCell(t, func(t *testing.T, cell *planEquivDB) {
		rng := rand.New(rand.NewSource(20260728))
		for i := 0; i < cell.iters(400); i++ {
			runEquivalence(t, cell, randomQuery(rng))
		}
	})
}

// randomWorkloadDBRows builds a logs/runs pair with NULLs, duplicate keys and
// tombstoned rows — the shapes the access paths must agree on — with rows
// versions in logs. With indexed=false no secondary index exists and every
// base-table access path is the full scan.
func randomWorkloadDBRows(t *testing.T, indexed bool, rows int) *relation.Database {
	t.Helper()
	db := relation.NewDatabase()
	logs, err := db.CreateTable("logs", relation.MustSchema(
		relation.Column{Name: "projid", Type: relation.TText},
		relation.Column{Name: "tstamp", Type: relation.TInt},
		relation.Column{Name: "value_name", Type: relation.TText},
		relation.Column{Name: "value", Type: relation.TFloat},
	))
	if err != nil {
		t.Fatal(err)
	}
	if indexed {
		if _, err := logs.CreateHashIndex("projid", "value_name"); err != nil {
			t.Fatal(err)
		}
		if _, err := logs.CreateOrderedIndex("tstamp"); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(7))
	projids := []string{"p1", "p2", "p3"}
	names := []string{"acc", "recall", "loss", "f1"}
	var ids []relation.RowID
	for i := 0; i < rows; i++ {
		val := relation.Null()
		if rng.Intn(10) > 0 {
			val = relation.Float(float64(rng.Intn(100)) / 100)
		}
		ts := relation.Null()
		if rng.Intn(20) > 0 {
			ts = relation.Int(int64(rng.Intn(50)))
		}
		id, err := logs.Insert(relation.Row{
			relation.Text(projids[rng.Intn(len(projids))]),
			ts,
			relation.Text(names[rng.Intn(len(names))]),
			val,
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		if rng.Intn(10) == 0 { // tombstones
			logs.Delete(id)
		}
	}
	runs, err := db.CreateTable("runs", relation.MustSchema(
		relation.Column{Name: "tstamp", Type: relation.TInt},
		relation.Column{Name: "vid", Type: relation.TText},
	))
	if err != nil {
		t.Fatal(err)
	}
	if indexed {
		if _, err := runs.CreateOrderedIndex("tstamp"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		if _, err := runs.Insert(relation.Row{
			relation.Int(int64(i)), relation.Text(fmt.Sprintf("v%d", i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

var logsColRE = regexp.MustCompile(`\b(projid|tstamp|value_name|value)\b`)

func randomQuery(rng *rand.Rand) string {
	conjPool := []func() string{
		func() string { return fmt.Sprintf("projid = 'p%d'", rng.Intn(4)) },
		func() string { return fmt.Sprintf("'p%d' = projid", rng.Intn(4)) },
		func() string {
			return fmt.Sprintf("value_name = '%s'", []string{"acc", "recall", "loss", "nope"}[rng.Intn(4)])
		},
		func() string {
			return fmt.Sprintf("value_name IN ('acc', '%s')", []string{"recall", "loss"}[rng.Intn(2)])
		},
		func() string { return fmt.Sprintf("tstamp BETWEEN %d AND %d", rng.Intn(50), rng.Intn(50)) },
		func() string { return fmt.Sprintf("tstamp > %d", rng.Intn(50)) },
		func() string { return fmt.Sprintf("tstamp <= %d", rng.Intn(50)) },
		func() string { return fmt.Sprintf("tstamp = %d", rng.Intn(50)) },
		func() string { return fmt.Sprintf("value > 0.%d", rng.Intn(9)) },
		func() string { return "value IS NOT NULL" },
		func() string { return "tstamp IS NULL" },
		func() string { return fmt.Sprintf("(projid = 'p1' OR tstamp > %d)", rng.Intn(50)) },
		func() string { return fmt.Sprintf("NOT (tstamp = %d)", rng.Intn(50)) },
	}
	join := rng.Intn(3) == 0
	var sb strings.Builder
	if join {
		sb.WriteString("SELECT l.projid, l.value, r.vid FROM logs l JOIN runs r ON l.tstamp = r.tstamp")
	} else {
		switch rng.Intn(3) {
		case 0:
			sb.WriteString("SELECT * FROM logs")
		case 1:
			sb.WriteString("SELECT projid, value_name, value FROM logs")
		default:
			sb.WriteString("SELECT value_name, count(*) AS n, max(value) AS mx FROM logs")
		}
	}
	n := rng.Intn(4)
	qualify := func(c string) string {
		if !join {
			return c
		}
		// Qualify logs columns with the alias half the time; bare names
		// resolve to the left side either way.
		if rng.Intn(2) == 0 {
			c = logsColRE.ReplaceAllString(c, "l.$1")
		}
		return c
	}
	for i := 0; i < n; i++ {
		if i == 0 {
			sb.WriteString(" WHERE ")
		} else {
			sb.WriteString(" AND ")
		}
		sb.WriteString(qualify(conjPool[rng.Intn(len(conjPool))]()))
	}
	if join && rng.Intn(2) == 0 {
		if n == 0 {
			sb.WriteString(" WHERE ")
		} else {
			sb.WriteString(" AND ")
		}
		sb.WriteString(fmt.Sprintf("r.tstamp < %d", rng.Intn(50)))
	}
	if !join && strings.Contains(sb.String(), "count(*)") {
		sb.WriteString(" GROUP BY value_name")
	}
	return sb.String()
}

// rowKey renders a row for comparison: every value with its type.
func rowKey(r relation.Row) string {
	parts := make([]string, len(r))
	for j, v := range r {
		parts[j] = fmt.Sprintf("%d:%s", v.Type(), v.String())
	}
	return strings.Join(parts, "|")
}

// diffResults compares two results as multisets of rendered rows.
func diffResults(a, b *Result) string { return diffResultsBy(a, b, rowKey) }

// diffResultsBy compares two results as multisets of rows rendered by key.
func diffResultsBy(a, b *Result, key func(relation.Row) string) string {
	if len(a.Columns) != len(b.Columns) {
		return fmt.Sprintf("column counts differ: %v vs %v", a.Columns, b.Columns)
	}
	if len(a.Rows) != len(b.Rows) {
		return fmt.Sprintf("row counts differ: %d vs %d", len(a.Rows), len(b.Rows))
	}
	canon := func(res *Result) []string {
		out := make([]string, len(res.Rows))
		for i, r := range res.Rows {
			out[i] = key(r)
		}
		sort.Strings(out)
		return out
	}
	ca, cb := canon(a), canon(b)
	for i := range ca {
		if ca[i] != cb[i] {
			return fmt.Sprintf("row %d differs: %s vs %s", i, ca[i], cb[i])
		}
	}
	return ""
}

func TestExplainViaRunReturnsPlanColumn(t *testing.T) {
	db := indexedDB(t)
	res := mustRun(t, db, "EXPLAIN SELECT value FROM logs WHERE tstamp > 1 ORDER BY value DESC LIMIT 2")
	if len(res.Columns) != 1 || res.Columns[0] != "plan" {
		t.Fatalf("columns = %v", res.Columns)
	}
	plan := explain(t, db, "SELECT value FROM logs WHERE tstamp > 1 ORDER BY value DESC LIMIT 2")
	for _, want := range []string{"Limit 2", "Sort [value DESC]", "Project [value]", "IndexRange"} {
		if !strings.Contains(plan, want) {
			t.Fatalf("plan missing %q:\n%s", want, plan)
		}
	}
}
