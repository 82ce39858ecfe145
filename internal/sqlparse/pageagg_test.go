package sqlparse

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"flordb/internal/metrics"
	"flordb/internal/relation"
)

// addPageAggTable adds table t to db: addShapeTables' columns and rows (id
// clustered, grp clustered text, sparse NULL on all of pages 4 and 5 and on
// every 7th row of odd pages, u spanning 0..99 on every page) over pages
// complete pages and a 300-row tail, committed every 700 rows, so epoch
// boundaries fall mid-page: a pin at most epochs sees part of some complete
// page.
func addPageAggTable(t *testing.T, db *relation.Database, pages int) {
	t.Helper()
	tbl, err := db.CreateTable("t", relation.MustSchema(
		relation.Column{Name: "id", Type: relation.TInt},
		relation.Column{Name: "grp", Type: relation.TText},
		relation.Column{Name: "sparse", Type: relation.TFloat},
		relation.Column{Name: "u", Type: relation.TInt},
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pages*relation.ZonePageRows+300; i++ {
		if _, err := tbl.Insert(shapeRow(i)); err != nil {
			t.Fatal(err)
		}
		if i%700 == 699 {
			db.AdvanceEpoch(time.Now())
		}
	}
	db.AdvanceEpoch(time.Now())
}

// shapeRow is row i of addShapeTables' tables.
func shapeRow(i int) relation.Row {
	page := i / relation.ZonePageRows
	sparse := relation.Float(float64(i%relation.ZonePageRows) / 8)
	if page == 4 || page == 5 || (page%2 == 1 && i%7 == 0) {
		sparse = relation.Null()
	}
	return relation.Row{
		relation.Int(int64(i)),
		relation.Text(fmt.Sprintf("g%02d", i/1536)),
		sparse,
		relation.Int(int64(i * 37 % 100)),
	}
}

// pageAggSelects are the aggregates TestPageAggregatesEqualScanRandomized
// draws from. The first six are eligible for page partials whatever the
// WHERE's shape allows (u and sparse hold more groups per page than the memo
// keeps: their signatures are refused); the rest are not: an expression
// argument or group key, a LIMIT.
var pageAggSelects = []string{
	"SELECT count(*) AS n FROM t%s",
	"SELECT grp, count(*) AS n, min(id) AS lo, max(id) AS hi FROM t%s GROUP BY grp",
	"SELECT grp, count(sparse) AS c, sum(sparse) AS s, avg(sparse) AS a FROM t%s GROUP BY grp",
	"SELECT min(sparse) AS mn, max(grp) AS mx, count(u) AS cu, sum(id) AS si FROM t%s",
	"SELECT u, count(*) AS n, max(sparse) AS mx FROM t%s GROUP BY u HAVING count(*) > 3",
	"SELECT sparse, count(*) AS n FROM t%s GROUP BY sparse ORDER BY n DESC",
	"SELECT grp, sum(u * 2) AS s FROM t%s GROUP BY grp",
	"SELECT lower(grp) AS g, count(*) AS n FROM t%s GROUP BY lower(grp)",
	"SELECT grp, count(*) AS n FROM t%s GROUP BY grp ORDER BY grp LIMIT 3",
}

// sparseRanges are the range shapes of shapePredicates — each comparison in
// both operand orders, BETWEEN, NOT BETWEEN and != — on sparse, with
// literals whose interval holds every non-NULL sparse cell (0 .. 127.875).
// Every cell of a page passes such a range except its NULL cells, so a page
// holding NULL cells (the odd ones) must not be counted whole.
var sparseRanges = []string{
	"sparse > -1", "-1 < sparse", "sparse >= 0", "0 <= sparse",
	"sparse < 128", "128 > sparse", "sparse <= 127.875", "127.875 >= sparse",
	"sparse BETWEEN 0 AND 127.875", "sparse NOT BETWEEN 200 AND 300", "sparse != 500", "500 != sparse",
}

// TestPageAggregatesEqualScanRandomized is the property that holds the page
// partial memo: random aggregates, eligible and not, under WHERE clauses
// drawn from shapePredicates, at random pins — mid-page ones included —
// each run cold (the first statement of a fresh table, or the first to need
// a page) and then warm, serially and under a gather, return what the
// reference executor returns over the rows visible at the pin, as a
// multiset (sum/avg floats at 9 digits). The first round also runs count(*)
// under every one of sparseRanges at the newest pin. The memo must also have
// been used.
func TestPageAggregatesEqualScanRandomized(t *testing.T) {
	forceGather(t)
	rng := rand.New(rand.NewSource(20261018))
	var reused, built, eligible, checked int64
	for round := 0; round < 6; round++ {
		db := relation.NewDatabase()
		reg := metrics.NewRegistry()
		db.RegisterMetrics(reg)
		addPageAggTable(t, db, 9)
		prefixes := map[int64]*relation.Snapshot{}
		var fixed []string
		if round == 0 {
			for _, pred := range sparseRanges {
				fixed = append(fixed, "SELECT count(*) AS n FROM t WHERE "+pred)
			}
		}
		for i := 0; i < len(fixed)+14; i++ {
			var q string
			e := db.Epoch()
			if i < len(fixed) {
				q = fixed[i]
			} else {
				where := ""
				if rng.Intn(4) > 0 {
					where = " WHERE " + shapePredicates[rng.Intn(len(shapePredicates))]
				}
				q = fmt.Sprintf(pageAggSelects[rng.Intn(len(pageAggSelects))], where)
				if rng.Intn(2) == 0 {
					e = rng.Int63n(e + 1)
				}
			}
			snap, err := db.SnapshotAt(e)
			if err != nil {
				t.Fatal(err)
			}
			if prefixes[e] == nil {
				prefixes[e] = prefixDB(t, db, e)
			}
			opts := ExecOptions{ScanWorkers: 1 + 3*rng.Intn(2)}
			ref, rerr := ExecuteScan(prefixes[e], mustParse(t, q))
			for _, run := range []string{"cold", "warm"} {
				got, err := ExecuteOptions(snap, mustParse(t, q), opts)
				if err != nil || rerr != nil {
					if (err == nil) != (rerr == nil) && !strings.Contains(q, "/ 0") {
						t.Fatalf("%s at epoch %d (%s): planned err=%v reference err=%v", q, e, run, err, rerr)
					}
					continue
				}
				if d := diffResultsBy(got, ref, approxKey); d != "" {
					t.Fatalf("%s at epoch %d, %d workers (%s): %s", q, e, opts.ScanWorkers, run, d)
				}
				checked++
			}
			plan, err := ExecuteOptions(snap, mustParse(t, "EXPLAIN "+q), opts)
			if err != nil {
				t.Fatal(err)
			}
			if strings.Contains(fmt.Sprint(plan.Rows), "[pages]") {
				eligible++
			}
		}
		c := reg.Snapshot().Counters
		reused += c["agg_pages_reused"]
		built += c["agg_pages_built"]
	}
	if eligible < 20 || reused == 0 || built == 0 {
		t.Fatalf("the memo was barely exercised: %d eligible statements, %d pages built, %d reused", eligible, built, reused)
	}
	t.Logf("%d results checked, %d eligible statements, %d pages built, %d reused", checked, eligible, built, reused)
}

// TestConcurrentPageAggregates runs eligible aggregates at mixed pins —
// latest, committed and historical, serial and gathered — beside a writer
// that keeps appending rows and committing, so pages complete, get their
// partials built by whichever reader needs them first, and are reused by
// every later pin. Every answer must equal the reference executor's over the
// same pin. Under -race (make race-stress runs it at GOMAXPROCS=8) it checks
// that publishing and reusing page partials needs no lock on the read path
// beyond the memo's own.
func TestConcurrentPageAggregates(t *testing.T) {
	forceGather(t)
	db := relation.NewDatabase()
	tbl, err := db.CreateTable("t", relation.MustSchema(
		relation.Column{Name: "id", Type: relation.TInt},
		relation.Column{Name: "grp", Type: relation.TText},
		relation.Column{Name: "sparse", Type: relation.TFloat},
		relation.Column{Name: "u", Type: relation.TInt},
	))
	if err != nil {
		t.Fatal(err)
	}
	const batches, perBatch = 30, 450
	queries := []string{
		"SELECT grp, count(*) AS n, min(id) AS lo, max(sparse) AS mx FROM t GROUP BY grp",
		"SELECT count(*) AS n, sum(id) AS s FROM t WHERE id >= 2048",
		"SELECT grp, count(sparse) AS c FROM t WHERE sparse IS NOT NULL GROUP BY grp",
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for n := 0; ; n++ {
				select {
				case <-done:
					if n >= 20 {
						return
					}
				default:
				}
				var snap *relation.Snapshot
				switch rng.Intn(3) {
				case 0:
					snap = db.SnapshotLatest()
				case 1:
					snap = db.Snapshot()
				default:
					var err error
					if snap, err = db.SnapshotAt(rng.Int63n(db.Epoch() + 1)); err != nil {
						errs <- err
						return
					}
				}
				q := queries[rng.Intn(len(queries))]
				got, err := ExecuteOptions(snap, mustParseConcurrent(q), ExecOptions{ScanWorkers: 1 + 3*rng.Intn(2)})
				ref, rerr := ExecuteScan(snap, mustParseConcurrent(q))
				if err == nil && rerr == nil {
					if d := diffResultsBy(got, ref, approxKey); d != "" {
						err = fmt.Errorf("%s at epoch %d: %s", q, snap.Epoch(), d)
					}
				}
				if err == nil {
					err = rerr
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(r)
	}
	for b := 0; b < batches; b++ {
		for i := b * perBatch; i < (b+1)*perBatch; i++ {
			if _, err := tbl.Insert(shapeRow(i)); err != nil {
				t.Fatal(err)
			}
		}
		db.AdvanceEpoch(time.Now())
		time.Sleep(time.Millisecond) // let the readers pin between commits
	}
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// mustParseConcurrent parses a statement known to be valid, off the test
// goroutine.
func mustParseConcurrent(q string) *SelectStmt {
	stmt, err := Parse(q)
	if err != nil {
		panic(err)
	}
	return stmt
}

// TestPageStatementsRenderInKeyOrder: a statement marked [pages] renders its
// groups in encoded-key order whether it merged page partials or decoded
// every row — before the table has a complete page, at a pin that cuts the
// first page short, and once pages are merged — serially, so no gather's
// merge orders them. Rows are inserted with the group keys descending, so
// first-seen order is the reverse of key order.
func TestPageStatementsRenderInKeyOrder(t *testing.T) {
	db := relation.NewDatabase()
	tbl, err := db.CreateTable("t", relation.MustSchema(relation.Column{Name: "grp", Type: relation.TText}))
	if err != nil {
		t.Fatal(err)
	}
	const q = "SELECT grp, count(*) AS n FROM t GROUP BY grp"
	insert := func(n int) {
		for i := range n {
			if _, err := tbl.Insert(relation.Row{relation.Text(fmt.Sprintf("g%d", 2-i%3))}); err != nil {
				t.Fatal(err)
			}
		}
		db.AdvanceEpoch(time.Now())
	}
	insert(300)
	first := db.Epoch()
	insert(3 * relation.ZonePageRows)
	for _, e := range []int64{first, db.Epoch(), db.Epoch()} {
		snap, err := db.SnapshotAt(e)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := ExecuteOptions(snap, mustParse(t, "EXPLAIN "+q), ExecOptions{ScanWorkers: 1})
		if err != nil || !strings.Contains(fmt.Sprint(plan.Rows), "[pages]") {
			t.Fatalf("%s is not marked [pages] (err %v): %v", q, err, plan)
		}
		got, err := ExecuteOptions(snap, mustParse(t, q), ExecOptions{ScanWorkers: 1})
		if err != nil {
			t.Fatal(err)
		}
		var keys []string
		for _, r := range got.Rows {
			keys = append(keys, r[0].AsText())
		}
		if fmt.Sprint(keys) != "[g0 g1 g2]" {
			t.Fatalf("at epoch %d: groups %v, want key order [g0 g1 g2]", e, keys)
		}
	}
}
