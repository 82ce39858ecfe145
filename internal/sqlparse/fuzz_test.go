package sqlparse

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"flordb/internal/relation"
)

// FuzzPlannedVsScan is the differential fuzz of the planned pipeline against
// the reference executor: any SQL text that parses runs through Execute and
// ExecuteScan over the indexed workload database, and whenever both succeed
// they must return the same columns and the same multiset of rows. Beside
// logs and runs, the database holds addShapeTables' t and ti: five complete
// zone pages clustered on id, so range predicates over them reach zone-map
// pruning, which logs (every page spans all of tstamp) never does. What is
// deliberately not compared, because it is not part of the contract:
//
//   - error presence (DESIGN §4: access paths and pushdown decide which rows
//     reach a failing expression; TestDeferredErrorContract);
//   - which rows a LIMIT/OFFSET keeps — index paths yield index order, so a
//     tie may be cut elsewhere; only the row count is defined;
//   - the digits of a float computed by sum()/avg(), whose association order
//     follows the access path.
//
// The corpus is seeded from the equivalence generators' output, with
// clustered-range predicates over t and ti, and with aggregates over t at
// each edge of page containment (the page-partial memo).
func FuzzPlannedVsScan(f *testing.F) {
	rng := rand.New(rand.NewSource(20260925))
	for i := 0; i < 24; i++ {
		f.Add(randomQuery(rng))
	}
	pool := filterConjunctPool(rng)
	for i := 0; i < 12; i++ {
		f.Add("SELECT * FROM logs WHERE " + pool[rng.Intn(len(pool))]() + " AND " + pool[rng.Intn(len(pool))]())
	}
	for i := 0; i < 12; i++ {
		q, asOf := randomParallelQuery(rng, 0)
		if asOf >= 0 {
			q += fmt.Sprintf(" AS OF %d", asOf)
		}
		f.Add(q)
	}
	f.Add("SELECT projid FROM logs WHERE tstamp > 1000 AND value / 0 > 1")
	f.Add("SELECT DISTINCT l.projid, r.vid FROM logs l JOIN runs r ON l.tstamp = r.tstamp AND l.value > 0.5 WHERE projid = 'p1' AND value_name IN ('acc', 'f1') ORDER BY vid DESC LIMIT 5 OFFSET 1")
	for _, pred := range []string{
		"id BETWEEN 1000 AND 2100", "(id < 1024 OR id > 4500)", "grp = 'g01' AND id >= 2048",
		"4096 <= id AND u IN (3, 4)", "sparse IS NULL AND id < 5000", "id NOT BETWEEN 100 AND 5000",
	} {
		f.Add("SELECT * FROM t WHERE " + pred)
		f.Add("SELECT grp, count(*) AS n, max(sparse) AS mx FROM ti WHERE " + pred + " GROUP BY grp")
	}

	// Containment edges of the page-partial memo over t's pages (page p holds
	// ids p*1024 .. p*1024+1023): inclusive and exclusive bounds at a page's
	// min and max, NULL-bearing pages, NOT BETWEEN, != and a single-valued IN.
	for _, pred := range []string{
		"id >= 1024", "id > 1024", "id > 1023", "id <= 2047", "id < 2047", "id < 2048",
		"id BETWEEN 1024 AND 2047", "id BETWEEN 1025 AND 2047", "sparse >= 0", "sparse IS NULL",
		"sparse IS NOT NULL AND id >= 2048", "id NOT BETWEEN 1024 AND 2047", "grp != 'g00'",
		"id != 3000", "grp IN ('g00')", "(id < 1024 OR grp IN ('g02'))",
	} {
		f.Add("SELECT count(*) FROM t WHERE " + pred)
		f.Add("SELECT grp, count(*), min(id), max(sparse), sum(u), avg(sparse) FROM t WHERE " + pred + " GROUP BY grp")
	}

	var db *relation.Database // built on first use: the fuzz engine runs one target function per process at a time
	f.Fuzz(func(t *testing.T, q string) {
		stmt, err := Parse(q)
		if err != nil || stmt.Explain || len(stmt.Joins) > 1 {
			return // nothing to compare, or a join chain too big to be worth a fuzz iteration
		}
		if db == nil {
			db = randomWorkloadDBRows(t, true, 500)
			addShapeTables(t, db, 5)
		}
		planned, perr := Execute(db.SnapshotLatest(), stmt)
		reference, rerr := ExecuteScan(db.SnapshotLatest(), stmt)
		if perr != nil || rerr != nil {
			return
		}
		if strings.Join(planned.Columns, ",") != strings.Join(reference.Columns, ",") {
			t.Fatalf("%q: columns %v vs %v", q, planned.Columns, reference.Columns)
		}
		if len(planned.Rows) != len(reference.Rows) {
			t.Fatalf("%q: %d rows planned, %d reference", q, len(planned.Rows), len(reference.Rows))
		}
		if stmt.Limit >= 0 || stmt.Offset > 0 {
			return
		}
		looseFloats := false
		if ap, err := buildAggPlan(stmt); err == nil {
			for _, call := range ap.rw.calls {
				looseFloats = looseFloats || call.Name == "sum" || call.Name == "avg"
			}
		}
		key := func(res *Result) []string {
			out := make([]string, len(res.Rows))
			for i, r := range res.Rows {
				parts := make([]string, len(r))
				for j, v := range r {
					if looseFloats && v.Type() == relation.TFloat {
						parts[j] = "float"
					} else {
						parts[j] = fmt.Sprintf("%d:%s", v.Type(), v.String())
					}
				}
				out[i] = strings.Join(parts, "|")
			}
			sort.Strings(out)
			return out
		}
		p, r := key(planned), key(reference)
		for i := range p {
			if p[i] != r[i] {
				t.Fatalf("%q: row multisets differ at %d: planned %s, reference %s", q, i, p[i], r[i])
			}
		}
	})
}
