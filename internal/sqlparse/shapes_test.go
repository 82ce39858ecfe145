package sqlparse

import (
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"flordb/internal/relation"
)

// addShapeTables adds two tables holding the same rows to db — t without
// secondary indexes, ti with them — of pages complete zone pages plus a
// 300-row tail, and commits them:
//
//   - id: the row number, clustered and unique;
//   - grp: clustered text, one value per 1,536 rows, so even pages are
//     constant and odd pages hold two values;
//   - sparse: i%1024/8 (every page spans 0..127.875), NULL on all of pages 4
//     and 5 and on every 7th row of odd pages;
//   - u: (i*37)%100, every page spanning the whole range.
//
// ti carries hash(grp) and hash(u).
func addShapeTables(t *testing.T, db *relation.Database, pages int) {
	t.Helper()
	schema := relation.MustSchema(
		relation.Column{Name: "id", Type: relation.TInt},
		relation.Column{Name: "grp", Type: relation.TText},
		relation.Column{Name: "sparse", Type: relation.TFloat},
		relation.Column{Name: "u", Type: relation.TInt},
	)
	for _, name := range []string{"t", "ti"} {
		tbl, err := db.CreateTable(name, schema)
		if err != nil {
			t.Fatal(err)
		}
		if name == "ti" {
			for _, col := range []string{"grp", "u"} {
				if _, err := tbl.CreateHashIndex(col); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := 0; i < pages*relation.ZonePageRows+300; i++ {
			if _, err := tbl.Insert(shapeRow(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	db.AdvanceEpoch(time.Now())
}

// shapePredicates are the WHERE clauses TestPredicateShapesPinned runs over
// both tables: every shape the engine reasons about without evaluating it,
// in both operand orders, with literals in range, on a page boundary (page
// p holds ids p*1024 .. p*1024+1023), out of range, NULL, negative and of
// the other numeric type; AND/OR nests of them; and the same shapes beside
// conjuncts that must be evaluated (arithmetic that errors, LIKE, NOT).
var shapePredicates = []string{
	"id = 5000", "5000 = id", "id != 5000", "5000 != id",
	"id < 2048", "2048 > id", "id <= 2048", "2048 >= id",
	"id > 15359", "15359 < id", "id >= 15359", "15359 <= id",
	"id > 100000", "id < -5", "-5 > id", "id >= -1", "id != -1",
	"id = NULL", "NULL < id", "id != NULL", "NULL >= id",
	"id < 1023.5", "id >= 1023.5", "id = 1024.0", "1024.0 <= id",
	"sparse = 64", "sparse > 127", "127.875 <= sparse", "sparse < 0", "sparse != 0",
	"grp = 'g03'", "'g03' = grp", "grp != 'g00'", "'g10' != grp", "grp < 'g02'",
	"'g05' < grp", "grp >= 'g10'", "grp = 'zzz'", "grp > 3", "u = 42", "u != 42",
	"id IN (10, 5000, 16000)", "grp IN ('g01', 'g07')", "u IN (3, 97)",
	"id IN (NULL, 2048)", "id IN (NULL, NULL)", "id IN (-3, 99999)", "sparse IN (1, 2.5)",
	"id NOT IN (1, 2)", "grp NOT IN ('g00', NULL)", "u NOT IN (NULL)", "id NOT IN (NULL, NULL)",
	"id BETWEEN 3000 AND 4095", "id BETWEEN 4096 AND 4096", "id BETWEEN -10 AND 1023",
	"id NOT BETWEEN 1024 AND 16383", "id BETWEEN NULL AND 5", "id NOT BETWEEN 5 AND NULL",
	"id BETWEEN 5000 AND 3000", "id NOT BETWEEN 5000 AND 3000", "grp BETWEEN 'g02' AND 'g03'",
	"sparse BETWEEN 10 AND 20.5", "u NOT BETWEEN 0 AND 99", "u BETWEEN 200 AND 300",
	"sparse IS NULL", "sparse IS NOT NULL", "id IS NULL", "id IS NOT NULL",
	"id > u", "u = id", "sparse < id", "grp != grp",
	"id < 3000 AND grp = 'g01'", "id >= 2048 AND id < 4096", "id > 4000 AND 5000 >= id AND id != 4500",
	"grp = 'g02' AND u IN (1, 2)", "id BETWEEN 1000 AND 9000 AND id > 8000",
	"(id < 1024 OR id > 15000)", "(id BETWEEN 0 AND 100 OR id BETWEEN 9000 AND 9100)",
	"id < 5000 AND (grp = 'g00' OR u = 3)", "(sparse IS NULL OR id > 16000)",
	"(id > u OR id < 1000)", "id < 2000 AND id > u", "(grp = 'g01' OR grp = 'g09') AND sparse IS NOT NULL",
	"((id < 10 OR id > 17000) AND (u = 1 OR grp = 'g00'))",
	"id > 100000 AND sparse / 0 > 1", "id < 1024 AND sparse / 0 > 1", "grp = 'g05' AND sparse / 0 > 1",
	"sparse IS NULL AND id / 0 > 1", "id < 1024 AND grp LIKE 'g0%'", "(id = 1 OR grp LIKE 'g1%')",
	"NOT (id < 5)", "1 < 2 AND id < 10", "z.id = 5000", "id = 5000 AND lower(grp) = 'g03'",
}

// shapeLine runs pred against table (serially, so the plan has no Gather
// and the page counters see one scan) and renders what is pinned: the
// EXPLAIN lines, the zone-page counter deltas, and whether execution
// errors. Rows must equal ref, the reference executor's, whenever both
// succeed.
func shapeLine(t *testing.T, cat *relation.Snapshot, table, pred string, ref *Result) string {
	t.Helper()
	q := fmt.Sprintf("SELECT * FROM %s WHERE %s", table, pred)
	plan, err := ExecuteOptions(cat, mustParse(t, "EXPLAIN "+q), ExecOptions{ScanWorkers: 1})
	if err != nil {
		t.Fatalf("%s: explain: %v", q, err)
	}
	var lines []string
	for _, r := range plan.Rows {
		lines = append(lines, strings.TrimSpace(r[0].AsText()))
	}
	p0, d0 := relation.ScanStats()
	res, perr := ExecuteOptions(cat, mustParse(t, q), ExecOptions{ScanWorkers: 1})
	p1, d1 := relation.ScanStats()
	if perr == nil && ref != nil && !sameRowsByID(res, ref) {
		t.Errorf("%s: planned and reference rows differ", q)
	}
	outcome := "ok"
	if perr != nil {
		outcome = "error"
	}
	return fmt.Sprintf("%s\t%s\t%s\tpruned=%d decoded=%d\t%s",
		table, pred, strings.Join(lines, " <- "), p1-p0, d1-d0, outcome)
}

// sameRowsByID compares two results of SELECT * over addShapeTables' rows as
// row multisets: id is unique, so both sort by it into one order.
func sameRowsByID(a, b *Result) bool {
	if len(a.Rows) != len(b.Rows) {
		return false
	}
	byID := func(x, y relation.Row) int { return relation.Compare(x[0], y[0]) }
	slices.SortFunc(a.Rows, byID)
	slices.SortFunc(b.Rows, byID)
	for i := range a.Rows {
		for c := range a.Rows[i] {
			x, y := a.Rows[i][c], b.Rows[i][c]
			if x.Type() != y.Type() || relation.Compare(x, y) != 0 {
				return false
			}
		}
	}
	return true
}

func mustParse(t *testing.T, q string) *SelectStmt {
	t.Helper()
	stmt, err := Parse(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return stmt
}

// TestPredicateShapesPinned pins, per predicate shape and per table (with
// and without secondary indexes), the access path and residual the planner
// chooses, the zone pages the full scan prunes and decodes, and whether the
// statement errors — against testdata/predicate_shapes.golden, one
// tab-separated line per query. Vectorized filtering, zone-map pruning and
// index access all reason about these shapes; a change to any of them shows
// here as a changed line.
func TestPredicateShapesPinned(t *testing.T) {
	want, err := os.ReadFile("testdata/predicate_shapes.golden")
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	db := relation.NewDatabase()
	addShapeTables(t, db, 17)
	cat := latest(t, db)
	var got []string
	for _, pred := range shapePredicates {
		// Both tables hold the same rows: one reference answer serves both.
		ref, rerr := ExecuteScan(cat, mustParse(t, "SELECT * FROM t WHERE "+pred))
		if rerr != nil {
			ref = nil
		}
		for _, table := range []string{"t", "ti"} {
			got = append(got, shapeLine(t, cat, table, pred, ref))
		}
	}
	if len(got) != len(wantLines) {
		t.Fatalf("%d queries, golden has %d lines", len(got), len(wantLines))
	}
	for i := range got {
		if got[i] != wantLines[i] {
			t.Errorf("line %d:\n got: %s\nwant: %s", i+1, got[i], wantLines[i])
		}
	}
}

// TestRangeEdgesOverZonePages pins the bound semantics of the one range
// access path, the zone-pruned scan, where a bound meets a page's min or
// max: exclusive bounds prune the page they touch and inclusive ones keep
// it, NULL cells never match even with one bound absent, duplicates all
// match a point range, and a gap, an inverted range or an empty table
// match nothing. Each case states its rows and its pruned complete pages;
// rows must equal the reference executor's.
func TestRangeEdgesOverZonePages(t *testing.T) {
	const page = relation.ZonePageRows
	db := relation.NewDatabase()
	schema := relation.MustSchema(
		relation.Column{Name: "id", Type: relation.TInt},
		relation.Column{Name: "score", Type: relation.TFloat},
	)
	tbl, err := db.CreateTable("r", schema)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("e", schema); err != nil {
		t.Fatal(err)
	}
	// Page 0 holds 0.3 only, page 1 0.5 and NULL alternately, page 2 NULL
	// only, page 3 0.7 only; a 100-row tail of 0.9 is never pruned.
	for i := 0; i < 4*page+100; i++ {
		score := relation.Float(0.9)
		switch p := i / page; {
		case p == 0:
			score = relation.Float(0.3)
		case p == 1 && i%2 == 0:
			score = relation.Float(0.5)
		case p == 1 || p == 2:
			score = relation.Null()
		case p == 3:
			score = relation.Float(0.7)
		}
		if _, err := tbl.Insert(relation.Row{relation.Int(int64(i)), score}); err != nil {
			t.Fatal(err)
		}
	}
	db.AdvanceEpoch(time.Now())
	cat := latest(t, db)
	for _, tc := range []struct {
		pred         string
		rows, pruned int
	}{
		{"score > 0.3 AND score < 0.7", page / 2, 3},
		{"score >= 0.3 AND score <= 0.7", 2*page + page/2, 1},
		{"score > 0.3 AND score <= 0.7", page + page/2, 2},
		{"score >= 0.3 AND score < 0.7", page + page/2, 2},
		{"score <= 0.5", page + page/2, 2},
		{"score > 0", 2*page + page/2 + 100, 1},
		{"score BETWEEN 0.3 AND 0.3", page, 3},
		{"score > 0.3 AND score <= 0.3", 0, 4},
		{"score > 0.5 AND score < 0.7", 0, 4},
		{"score BETWEEN 0.7 AND 0.3", 0, 4},
	} {
		q := "SELECT * FROM r WHERE " + tc.pred
		ref, err := ExecuteScan(cat, mustParse(t, q))
		if err != nil {
			t.Fatal(err)
		}
		p0, _ := relation.ScanStats()
		res, err := ExecuteOptions(cat, mustParse(t, q), ExecOptions{ScanWorkers: 1})
		p1, _ := relation.ScanStats()
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != tc.rows || !sameRowsByID(res, ref) {
			t.Errorf("%s: %d rows, want %d and the reference's %d", tc.pred, len(res.Rows), tc.rows, len(ref.Rows))
		}
		if int(p1-p0) != tc.pruned {
			t.Errorf("%s: pruned %d pages, want %d", tc.pred, p1-p0, tc.pruned)
		}
	}
	if res := mustRun(t, db, "SELECT * FROM e WHERE score BETWEEN 0 AND 1"); len(res.Rows) != 0 {
		t.Fatalf("empty table: %d rows", len(res.Rows))
	}
}

// TestNaNCellsOverZonePages: NaN orders above every other number and equals
// itself (relation.Compare), so a page zone's [Min, Max] bounds its NaN
// cells: zone pruning keeps a page whose NaN cells pass a predicate, and
// page containment never takes a page whose NaN cells fail one. Each page
// alternates 1.0 and NaN; every answer equals the reference executor's
// and a closed-form count.
func TestNaNCellsOverZonePages(t *testing.T) {
	const page = relation.ZonePageRows
	db := relation.NewDatabase()
	tbl, err := db.CreateTable("f", relation.MustSchema(relation.Column{Name: "v", Type: relation.TFloat}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2*page; i++ {
		v := 1.0
		if i%2 == 1 {
			v = math.NaN()
		}
		if _, err := tbl.Insert(relation.Row{relation.Float(v)}); err != nil {
			t.Fatal(err)
		}
	}
	db.AdvanceEpoch(time.Now())
	for _, tc := range []struct {
		pred string
		want int64
	}{
		{"v = 7", 0}, {"v < 5", page}, {"v > 5", page}, {"v >= 1", 2 * page},
		{"v BETWEEN 0 AND 2", page}, {"v != 1", page}, {"v IS NOT NULL", 2 * page},
	} {
		for range 2 { // cold, then over the stored page partials
			q := "SELECT count(*) FROM f WHERE " + tc.pred
			res := mustRun(t, db, q)
			ref, err := ExecuteScan(latest(t, db), mustParse(t, q))
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Rows[0][0].AsInt(); got != tc.want || relation.Compare(res.Rows[0][0], ref.Rows[0][0]) != 0 {
				t.Errorf("%s: planned %d, reference %v, want %d", q, got, ref.Rows[0][0], tc.want)
			}
		}
	}
}
