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
// they must return the same columns and the same multiset of rows. What is
// deliberately not compared, because it is not part of the contract:
//
//   - error presence (DESIGN §4: access paths and pushdown decide which rows
//     reach a failing expression; TestDeferredErrorContract);
//   - which rows a LIMIT/OFFSET keeps — index paths yield index order, so a
//     tie may be cut elsewhere; only the row count is defined;
//   - the digits of a float computed by sum()/avg(), whose association order
//     follows the access path.
//
// The corpus is seeded from the equivalence generators' output.
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

	var db *relation.Database // built on first use: the fuzz engine runs one target function per process at a time
	f.Fuzz(func(t *testing.T, q string) {
		stmt, err := Parse(q)
		if err != nil || stmt.Explain || len(stmt.Joins) > 1 {
			return // nothing to compare, or a join chain too big to be worth a fuzz iteration
		}
		if db == nil {
			db = randomWorkloadDBRows(t, true, 500)
		}
		planned, perr := Execute(latest(t, db), stmt)
		reference, rerr := ExecuteScan(latest(t, db), stmt)
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
