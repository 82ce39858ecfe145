package relation

import (
	"slices"
	"sync"
	"testing"
	"time"
)

func TestScanConcurrentWithInserts(t *testing.T) {
	// Scan walks a lock-free published state; concurrent inserts must
	// neither race (run with -race) nor disturb an in-flight scan. The
	// writer is bounded: readers no longer throttle it, so an unbounded
	// writer would grow the table quadratically under the race detector.
	tab := NewTable("t", testSchema(t))
	if _, err := tab.CreateHashIndex("name"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := tab.Insert(Row{Int(int64(i)), Text("seed"), Float(1)}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 100; i < 50000; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := tab.Insert(Row{Int(int64(i)), Text("w"), Float(2)}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 50; i++ {
		seen := 0
		latest(tab).Scan(func(_ RowID, r Row) bool {
			seen++
			_ = r[0].AsInt()
			return true
		})
		if seen < 100 {
			t.Fatalf("scan %d saw %d rows, want >= 100", i, seen)
		}
	}
	close(stop)
	wg.Wait()
}

func TestRowsByIDsSkipsInvisibleRows(t *testing.T) {
	db := NewDatabase()
	tab, err := db.CreateTable("t", testSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	var ids []RowID
	for i := 0; i < 4; i++ {
		id, err := tab.Insert(Row{Int(int64(i)), Text("x"), Float(0)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		if i == 1 {
			db.AdvanceEpoch(time.Now()) // rows 0 and 1 commit; 2 and 3 stay in flight
		}
	}
	snap := db.Snapshot()
	sv, _ := snap.Table("t")
	// Ids arrive in index order, not store order; visible ones keep it.
	rows := sv.RowsByIDs([]RowID{ids[3], ids[1], ids[2], ids[0], 99, -1})
	if len(rows) != 2 || rows[0][0].AsInt() != 1 || rows[1][0].AsInt() != 0 {
		t.Fatalf("snapshot resolved %v, want rows 1 then 0", rows)
	}
	if got := len(latest(tab).RowsByIDs(append(ids, 99, -1))); got != 4 {
		t.Fatalf("latest view resolved %d rows, want 4", got)
	}
}

// pageTable builds a table over testSchema whose page p holds ZonePageRows
// rows, their scores cycling through pages[p].
func pageTable(t *testing.T, pages ...[]Value) *Table {
	t.Helper()
	tab := NewTable("t", testSchema(t))
	for p, scores := range pages {
		for i := 0; i < ZonePageRows; i++ {
			id := int64(p*ZonePageRows + i)
			if _, err := tab.Insert(Row{Int(id), Text("r"), scores[i%len(scores)]}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return tab
}

// zoneRange reads the scores of tab within lo..hi through the zone-pruned
// batch scan, the one range access path: a NULL bound is absent, and incLo
// and incHi make a bound inclusive. Pages are ruled out on their score zone
// alone, so the counts pin what the zones record. It returns the rows that
// match, checked against a row-at-a-time scan, and the pages pruned.
func zoneRange(t *testing.T, tab *Table, lo, hi Value, incLo, incHi bool) (rows int, pruned int64) {
	t.Helper()
	above := func(v, b Value, inc bool) bool {
		c := Compare(v, b)
		return c > 0 || inc && c == 0
	}
	in := func(v Value) bool {
		return !v.IsNull() && (lo.IsNull() || above(v, lo, incLo)) && (hi.IsNull() || above(hi, v, incHi))
	}
	want := 0
	latest(tab).Scan(func(_ RowID, r Row) bool {
		if in(r[2]) {
			want++
		}
		return true
	})
	scan := NewBatchScan(latest(tab), nil, ZonePageRows)
	scan.SetZoneFilter(func(z *PageZone) bool {
		s := z.Cols[2]
		return s.Min.IsNull() ||
			!lo.IsNull() && !above(s.Max, lo, incLo) ||
			!hi.IsNull() && !above(hi, s.Min, incHi)
	})
	p0, _ := ScanStats()
	got := collectBatches(t, NewBatchFilter(scan, func(b *Batch) {
		sel := b.Sel[:0]
		for _, i := range b.Sel {
			if in(b.Cols[2][i]) {
				sel = append(sel, i)
			}
		}
		b.Sel = sel
	}))
	p1, _ := ScanStats()
	if len(got) != want {
		t.Fatalf("zone-pruned scan matched %d rows, row scan %d", len(got), want)
	}
	return len(got), p1 - p0
}

func TestRangeBoundsExclusive(t *testing.T) {
	// A bound equal to a page's max or min prunes the page when exclusive
	// and keeps it when inclusive.
	const page = ZonePageRows
	tab := pageTable(t, []Value{Float(0.1)}, []Value{Float(0.3)}, []Value{Float(0.5)}, []Value{Float(0.7)})
	for _, tc := range []struct {
		name         string
		incLo, incHi bool
		rows         int
		pruned       int64
	}{
		{"(0.3, 0.7)", false, false, page, 3},
		{"[0.3, 0.7)", true, false, 2 * page, 2},
		{"(0.3, 0.7]", false, true, 2 * page, 2},
		{"[0.3, 0.7]", true, true, 3 * page, 1},
	} {
		rows, pruned := zoneRange(t, tab, Float(0.3), Float(0.7), tc.incLo, tc.incHi)
		if rows != tc.rows || pruned != tc.pruned {
			t.Errorf("%s: %d rows and %d pages pruned, want %d and %d", tc.name, rows, pruned, tc.rows, tc.pruned)
		}
	}
}

func TestRangeBoundsNullEntriesExcluded(t *testing.T) {
	// SQL range predicates never match NULL, even when a bound is absent:
	// NULL cells stay out of a page's bounds, and an all-NULL page has none.
	const page = ZonePageRows
	tab := pageTable(t, []Value{Null(), Float(0.2)}, []Value{Null()}, []Value{Float(0.8)})
	zones := tab.zonePages(tab.state.Load())
	if z := zones[0].Cols[2]; Compare(z.Min, Float(0.2)) != 0 || Compare(z.Max, Float(0.2)) != 0 || z.NullCount != page/2 {
		t.Fatalf("mixed page zone %+v, want min = max = 0.2 over %d NULLs", z, page/2)
	}
	if z := zones[1].Cols[2]; !z.Min.IsNull() || !z.Max.IsNull() || z.NullCount != page {
		t.Fatalf("all-NULL page zone %+v, want NULL bounds over %d NULLs", z, page)
	}
	for _, tc := range []struct {
		name   string
		lo, hi Value
		rows   int
		pruned int64
	}{
		{"unbounded", Null(), Null(), page/2 + page, 1},
		{"<= 0.5", Null(), Float(0.5), page / 2, 2},
		{">= 0.0", Float(0.0), Null(), page/2 + page, 1},
	} {
		rows, pruned := zoneRange(t, tab, tc.lo, tc.hi, true, true)
		if rows != tc.rows || pruned != tc.pruned {
			t.Errorf("%s: %d rows and %d pages pruned, want %d and %d", tc.name, rows, pruned, tc.rows, tc.pruned)
		}
	}
}

func TestRangeBoundsDuplicateKeys(t *testing.T) {
	const page = ZonePageRows
	tab := pageTable(t, []Value{Float(0.5)}, []Value{Float(0.2), Float(0.5)})
	if rows, pruned := zoneRange(t, tab, Float(0.5), Float(0.5), true, true); rows != page+page/2 || pruned != 0 {
		t.Fatalf("point range over duplicates: %d rows and %d pages pruned, want %d and 0", rows, pruned, page+page/2)
	}
	if rows, pruned := zoneRange(t, tab, Float(0.5), Float(0.5), false, true); rows != 0 || pruned != 2 {
		t.Fatalf("(0.5, 0.5]: %d rows and %d pages pruned, want 0 and 2", rows, pruned)
	}
}

func TestRangeBoundsEmptyAndInverted(t *testing.T) {
	tab := pageTable(t, []Value{Float(0.1)}, []Value{Float(0.9)})
	if rows, pruned := zoneRange(t, tab, Float(0.2), Float(0.8), true, true); rows != 0 || pruned != 2 {
		t.Fatalf("gap range: %d rows and %d pages pruned, want 0 and 2", rows, pruned)
	}
	if rows, pruned := zoneRange(t, tab, Float(0.9), Float(0.1), true, true); rows != 0 || pruned != 2 {
		t.Fatalf("inverted range: %d rows and %d pages pruned, want 0 and 2", rows, pruned)
	}
	if rows, pruned := zoneRange(t, pageTable(t), Null(), Null(), true, true); rows != 0 || pruned != 0 {
		t.Fatalf("empty table: %d rows and %d pages pruned", rows, pruned)
	}
}

func TestIndexIntrospection(t *testing.T) {
	tab := NewTable("t", testSchema(t))
	if _, err := tab.CreateHashIndex("name"); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.CreateHashIndex("id", "name"); err != nil {
		t.Fatal(err)
	}
	hcols := latest(tab).HashIndexColumns()
	if len(hcols) != 2 || len(hcols[0]) != 2 {
		t.Fatalf("HashIndexColumns = %v, want widest-first", hcols)
	}
}

func TestIndexLookupOp(t *testing.T) {
	tab := NewTable("t", testSchema(t))
	if _, err := tab.CreateHashIndex("name"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		name := "a"
		if i%2 == 0 {
			name = "b"
		}
		if _, err := tab.Insert(Row{Int(int64(i)), Text(name), Float(0)}); err != nil {
			t.Fatal(err)
		}
	}
	op, err := NewIndexLookup(latest(tab), []string{"name"}, [][]Value{{Text("a")}}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(slices.Collect(RowsOf(op))); got != 3 {
		t.Fatalf("lookup a: %d rows, want 3", got)
	}
	// Multi-tuple (IN) lookup.
	op, err = NewIndexLookup(latest(tab), []string{"name"}, [][]Value{{Text("a")}, {Text("b")}}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(slices.Collect(RowsOf(op))); got != 6 {
		t.Fatalf("lookup a,b: %d rows, want 6", got)
	}
	if _, err := NewIndexLookup(latest(tab), []string{"score"}, [][]Value{{Float(1)}}, nil, nil); err == nil {
		t.Fatal("lookup without index must fail")
	}
}

func TestHashJoinLazyBuild(t *testing.T) {
	tab := NewTable("t", testSchema(t))
	for i := 0; i < 3; i++ {
		if _, err := tab.Insert(Row{Int(int64(i)), Text("x"), Float(0)}); err != nil {
			t.Fatal(err)
		}
	}
	built := 0 // build rows pulled
	build := func(yield func(Row) bool) {
		for r := range scan(tab) {
			built++
			if !yield(r) {
				return
			}
		}
	}
	_, j, err := HashJoin(tab.Schema(), scan(tab), tab.Schema(), build, []string{"id"}, []string{"id"}, "r")
	if err != nil {
		t.Fatal(err)
	}
	if built != 0 {
		t.Fatalf("build side drained at construction: %d rows pulled", built)
	}
	if got := len(slices.Collect(j)); got != 3 {
		t.Fatalf("join rows = %d, want 3", got)
	}
	if built != 3 {
		t.Fatalf("build side pulled %d rows, want 3", built)
	}
}

func TestValueAppendKeyMatchesKey(t *testing.T) {
	vals := []Value{
		Null(), Text("abc"), Text(""), Int(42), Int(-7), Float(3.14), Float(42),
		Bool(true), Bool(false), Blob([]byte{1, 2, 3}),
	}
	for _, v := range vals {
		if got := string(v.AppendKey(nil)); got != v.Key() {
			t.Fatalf("AppendKey mismatch for %v: %q != %q", v, got, v.Key())
		}
	}
	// Int/Float key unification (they join and group together).
	if Int(5).Key() != Float(5).Key() {
		t.Fatal("Int(5) and Float(5) must share a key")
	}
}
