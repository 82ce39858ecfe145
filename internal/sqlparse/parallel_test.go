package sqlparse

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"flordb/internal/relation"
)

// parallelWorkloadDB builds a logs table large enough to clear the parallel
// fan-out threshold, with NULLs, duplicate keys and epoch structure (one
// epoch per 300 inserts, so boundaries fall mid-page and mid-morsel) — the
// state shapes the morsel-parallel scan must agree with serial execution on.
func parallelWorkloadDB(t *testing.T) (*relation.Database, int64) {
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
	rng := rand.New(rand.NewSource(41))
	projids := []string{"p1", "p2", "p3"}
	names := []string{"acc", "recall", "loss", "f1"}
	rows := 3 * parallelMinRows
	for i := 0; i < rows; i++ {
		val := relation.Null()
		if rng.Intn(10) > 0 {
			val = relation.Float(float64(rng.Intn(100)) / 100)
		}
		ts := relation.Null()
		if rng.Intn(20) > 0 {
			ts = relation.Int(int64(rng.Intn(50)))
		}
		if _, err := logs.Insert(relation.Row{
			relation.Text(projids[rng.Intn(len(projids))]),
			ts,
			relation.Text(names[rng.Intn(len(names))]),
			val,
		}); err != nil {
			t.Fatal(err)
		}
		if i%300 == 299 {
			db.AdvanceEpoch(time.Now())
		}
	}
	db.AdvanceEpoch(time.Now())
	return db, db.Epoch()
}

// randomParallelQuery emits single-table statements from the shapes the
// planner gathers (and a few it must leave serial), and a random
// mid-history epoch to pin one in three of them AS OF — or -1.
func randomParallelQuery(rng *rand.Rand, maxEpoch int64) (string, int64) {
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
		// Deferred evaluation error: '-' over (float, text) fails on the
		// first non-NULL pair, at eval time. Parallel pruning and fan-out
		// must surface it exactly when serial does.
		func() string { return "value - value_name = 0" },
	}
	var sb strings.Builder
	agg := false
	switch rng.Intn(4) {
	case 0:
		sb.WriteString("SELECT * FROM logs")
	case 1:
		sb.WriteString("SELECT projid, value_name, value FROM logs")
	case 2:
		sb.WriteString("SELECT upper(projid) AS p, value * 2 AS v2 FROM logs")
	default:
		agg = true
		sb.WriteString("SELECT value_name, count(*) AS n, max(value) AS mx, avg(value) AS mean FROM logs")
	}
	for i, n := 0, rng.Intn(4); i < n; i++ {
		if i == 0 {
			sb.WriteString(" WHERE ")
		} else {
			sb.WriteString(" AND ")
		}
		sb.WriteString(conjPool[rng.Intn(len(conjPool))]())
	}
	if agg {
		sb.WriteString(" GROUP BY value_name")
		if rng.Intn(3) == 0 {
			sb.WriteString(" HAVING count(*) > 5")
		}
		if rng.Intn(2) == 0 {
			sb.WriteString(" ORDER BY value_name")
		}
	} else if rng.Intn(2) == 0 {
		sb.WriteString(" ORDER BY tstamp, projid, value_name, value")
		if rng.Intn(2) == 0 {
			sb.WriteString(fmt.Sprintf(" LIMIT %d", rng.Intn(40)))
		}
	} else if rng.Intn(4) == 0 {
		sb.WriteString(fmt.Sprintf(" LIMIT %d", rng.Intn(40))) // no ORDER BY: must stay serial
	}
	if rng.Intn(3) == 0 {
		return sb.String(), rng.Int63n(maxEpoch + 1)
	}
	return sb.String(), -1
}

// TestConcurrentParallelScanEquivalence is the acceptance property for
// morsel-driven parallel execution: across randomized predicates,
// projections, aggregates, mid-epoch AS OF pins and deferred evaluation
// errors, parallel execution returns the same row multiset as the serial
// reference executor — and the byte-identical ordered result whenever the
// statement has an ORDER BY. The reference answers an AS OF statement over
// the prefixDB at its epoch, not through a pin. Run under -race this also shakes out data
// races between worker pipelines (the race-stress CI job runs it at
// GOMAXPROCS=8).
func TestConcurrentParallelScanEquivalence(t *testing.T) {
	old := runtime.GOMAXPROCS(0)
	if old < 4 {
		runtime.GOMAXPROCS(4)
		defer runtime.GOMAXPROCS(old)
	}
	db, maxEpoch := parallelWorkloadDB(t)

	// Sanity: the canonical shape actually takes the parallel plan.
	stmt, err := Parse("EXPLAIN SELECT value_name, count(*) AS n FROM logs WHERE projid = 'p1' GROUP BY value_name")
	if err != nil {
		t.Fatal(err)
	}
	res, err := ExecuteOptions(db.SnapshotLatest(), stmt, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var plan []string
	for _, r := range res.Rows {
		plan = append(plan, r[0].AsText())
	}
	if !strings.Contains(strings.Join(plan, "\n"), "Gather") {
		t.Fatalf("parallel plan not chosen:\n%s", strings.Join(plan, "\n"))
	}

	rng := rand.New(rand.NewSource(20260808))
	prefixes := map[int64]*relation.Snapshot{}
	for i := 0; i < 250; i++ {
		q, asOf := randomParallelQuery(rng, maxEpoch)
		ref := db.SnapshotLatest()
		if asOf >= 0 {
			if prefixes[asOf] == nil {
				prefixes[asOf] = prefixDB(t, db, asOf)
			}
			ref = prefixes[asOf]
			q += fmt.Sprintf(" AS OF %d", asOf)
		}
		stmt, err := Parse(q)
		if err != nil {
			t.Fatalf("generated unparsable query %q: %v", q, err)
		}
		par, perr := ExecuteOptions(db.SnapshotLatest(), stmt, ExecOptions{})
		stmt2, _ := Parse(q)
		stmt2.AsOf = nil
		ser, serr := ExecuteScan(ref, stmt2)
		if (perr == nil) != (serr == nil) {
			t.Fatalf("query %q: parallel err=%v serial err=%v", q, perr, serr)
		}
		if perr != nil {
			continue
		}
		if d := diffResultsApprox(par, ser); d != "" {
			t.Fatalf("query %q: parallel and serial results differ: %s", q, d)
		}
		if strings.Contains(q, "ORDER BY") && !orderedEqual(par, ser) {
			t.Fatalf("query %q: ordered results differ:\n%v\nvs\n%v", q, par.Rows, ser.Rows)
		}
	}
}

// approxKey renders a row for comparison, rounding floats to 9 significant
// digits: per-morsel partial sums merge in a different association order than
// one serial left-to-right sum, so avg/sum results may differ in the last
// couple of ulps. Everything else must match exactly.
func approxKey(r relation.Row) string {
	var sb strings.Builder
	for i, v := range r {
		if i > 0 {
			sb.WriteByte('|')
		}
		if v.Type() == relation.TFloat {
			fmt.Fprintf(&sb, "f:%.9g", v.AsFloat())
		} else {
			fmt.Fprintf(&sb, "%d:%s", v.Type(), v.String())
		}
	}
	return sb.String()
}

// diffResultsApprox is diffResults with float tolerance (see approxKey).
func diffResultsApprox(a, b *Result) string { return diffResultsBy(a, b, approxKey) }

// orderedEqual compares two results row by row in order, with the same float
// tolerance as diffResultsApprox.
func orderedEqual(a, b *Result) bool {
	if len(a.Rows) != len(b.Rows) {
		return false
	}
	for i := range a.Rows {
		if approxKey(a.Rows[i]) != approxKey(b.Rows[i]) {
			return false
		}
	}
	return true
}

// TestParallelScanSerialFallbacks pins the planner's gather rule from the
// other side: statements it must leave serial (index-served predicates,
// joins, LIMIT without ORDER BY, single-worker configs, aggregate + LIMIT)
// have no Gather line in their plan — and still execute correctly.
func TestParallelScanSerialFallbacks(t *testing.T) {
	old := runtime.GOMAXPROCS(0)
	if old < 4 {
		runtime.GOMAXPROCS(4)
		defer runtime.GOMAXPROCS(old)
	}
	db, _ := parallelWorkloadDB(t)
	logs, _ := db.Table("logs")
	if _, err := logs.CreateHashIndex("projid", "value_name"); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		q    string
		opts ExecOptions
	}{
		// Index path wins: the stream carries no scan to carve into morsels.
		{"SELECT value FROM logs WHERE projid = 'p1' AND value_name = 'acc'", ExecOptions{}},
		// So does a join, even one of two full scans.
		{"SELECT a.value FROM logs a JOIN logs b ON a.tstamp = b.tstamp AND a.projid = b.value_name", ExecOptions{}},
		// LIMIT without ORDER BY: serial stops early.
		{"SELECT projid FROM logs LIMIT 3", ExecOptions{}},
		// Single worker forced.
		{"SELECT projid, count(*) AS n FROM logs GROUP BY projid", ExecOptions{ScanWorkers: 1}},
		// Aggregate with LIMIT: group order is visible, stays serial.
		{"SELECT value_name, count(*) AS n FROM logs GROUP BY value_name LIMIT 2", ExecOptions{}},
	} {
		stmt, err := Parse("EXPLAIN " + tc.q)
		if err != nil {
			t.Fatalf("%s: %v", tc.q, err)
		}
		res, err := ExecuteOptions(db.SnapshotLatest(), stmt, tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.q, err)
		}
		var plan []string
		for _, r := range res.Rows {
			plan = append(plan, r[0].AsText())
		}
		if strings.Contains(strings.Join(plan, "\n"), "Gather") {
			t.Fatalf("%s: expected serial plan, got:\n%s", tc.q, strings.Join(plan, "\n"))
		}
		stmt2, _ := Parse(tc.q)
		par, perr := ExecuteOptions(db.SnapshotLatest(), stmt2, tc.opts)
		stmt3, _ := Parse(tc.q)
		ser, serr := ExecuteScan(db.SnapshotLatest(), stmt3)
		if perr != nil || serr != nil {
			t.Fatalf("%s: errs %v / %v", tc.q, perr, serr)
		}
		if strings.Contains(tc.q, "LIMIT") {
			if len(par.Rows) != len(ser.Rows) {
				t.Fatalf("%s: row counts %d vs %d", tc.q, len(par.Rows), len(ser.Rows))
			}
			continue // LIMIT without full ORDER BY picks arbitrary-but-count-equal rows
		}
		if d := diffResults(par, ser); d != "" {
			t.Fatalf("%s: results differ: %s", tc.q, d)
		}
	}
}

// TestZoneMapPruningSelectiveScan asserts the C17 acceptance criterion that
// a selective predicate over a clustered column decodes under 20% of the
// table's pages, using the process-wide scan counters.
func TestZoneMapPruningSelectiveScan(t *testing.T) {
	db := relation.NewDatabase()
	logs, err := db.CreateTable("logs", relation.MustSchema(
		relation.Column{Name: "tstamp", Type: relation.TInt},
		relation.Column{Name: "value", Type: relation.TFloat},
	))
	if err != nil {
		t.Fatal(err)
	}
	const rows = 64 * relation.ZonePageRows
	for i := 0; i < rows; i++ {
		// tstamp is monotonic, so consecutive pages hold disjoint ranges —
		// the clustered shape zone maps prune best.
		if _, err := logs.Insert(relation.Row{relation.Int(int64(i)), relation.Float(float64(i % 100))}); err != nil {
			t.Fatal(err)
		}
	}
	db.AdvanceEpoch(time.Now())

	q := fmt.Sprintf("SELECT tstamp, value FROM logs WHERE tstamp BETWEEN %d AND %d",
		5*relation.ZonePageRows, 6*relation.ZonePageRows-1)
	p0, d0 := relation.ScanStats()
	res, err := Run(db.SnapshotLatest(), q)
	if err != nil {
		t.Fatal(err)
	}
	p1, d1 := relation.ScanStats()
	if len(res.Rows) != relation.ZonePageRows {
		t.Fatalf("got %d rows, want %d", len(res.Rows), relation.ZonePageRows)
	}
	pruned, decoded := p1-p0, d1-d0
	if pruned+decoded == 0 {
		t.Fatal("scan counters did not move")
	}
	if frac := float64(decoded) / float64(pruned+decoded); frac >= 0.2 {
		t.Fatalf("selective scan decoded %.0f%% of pages (pruned=%d decoded=%d), want < 20%%",
			frac*100, pruned, decoded)
	}
}
