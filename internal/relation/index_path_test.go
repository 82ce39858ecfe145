package relation

import (
	"sync"
	"testing"
	"time"
)

// scoreTable builds a table over testSchema with an ordered index on score.
func scoreTable(t *testing.T, scores []Value) (*Table, *OrderedIndex) {
	t.Helper()
	tab := NewTable("t", testSchema(t))
	ix, err := tab.CreateOrderedIndex("score")
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range scores {
		if _, err := tab.Insert(Row{Int(int64(i)), Text("r"), s}); err != nil {
			t.Fatal(err)
		}
	}
	return tab, ix
}

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
	defer snap.Release()
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

func TestRangeBoundsExclusive(t *testing.T) {
	_, ix := scoreTable(t, []Value{Float(0.1), Float(0.3), Float(0.5), Float(0.7)})
	if got := len(ix.RangeBounds(Float(0.3), Float(0.7), false, false)); got != 1 {
		t.Fatalf("(0.3, 0.7) exclusive: got %d ids, want 1", got)
	}
	if got := len(ix.RangeBounds(Float(0.3), Float(0.7), true, false)); got != 2 {
		t.Fatalf("[0.3, 0.7): got %d ids, want 2", got)
	}
	if got := len(ix.RangeBounds(Float(0.3), Float(0.7), false, true)); got != 2 {
		t.Fatalf("(0.3, 0.7]: got %d ids, want 2", got)
	}
	if got := len(ix.RangeBounds(Float(0.3), Float(0.7), true, true)); got != 3 {
		t.Fatalf("[0.3, 0.7]: got %d ids, want 3", got)
	}
}

func TestRangeBoundsNullEntriesExcluded(t *testing.T) {
	// SQL range predicates never match NULL, even when a bound is absent.
	tab, ix := scoreTable(t, []Value{Null(), Float(0.2), Null(), Float(0.8)})
	if got := len(ix.RangeBounds(Null(), Null(), true, true)); got != 2 {
		t.Fatalf("unbounded RangeBounds returned %d ids, want 2 (no NULLs)", got)
	}
	if got := len(ix.RangeBounds(Null(), Float(0.5), true, true)); got != 1 {
		t.Fatalf("<= 0.5 returned %d ids, want 1", got)
	}
	if got := len(ix.RangeBounds(Float(0.0), Null(), true, true)); got != 2 {
		t.Fatalf(">= 0.0 returned %d ids, want 2", got)
	}
	// Contrast: the inclusive Range keeps its legacy include-all behavior.
	if got := len(ix.Range(Null(), Null())); got != 4 {
		t.Fatalf("legacy Range(NULL, NULL) returned %d ids, want 4", got)
	}
	_ = tab
}

func TestRangeBoundsDuplicateKeys(t *testing.T) {
	_, ix := scoreTable(t, []Value{Float(0.5), Float(0.5), Float(0.5), Float(0.2)})
	ids := ix.RangeBounds(Float(0.5), Float(0.5), true, true)
	if len(ids) != 3 {
		t.Fatalf("point range over duplicates returned %d ids, want 3", len(ids))
	}
	if got := len(ix.RangeBounds(Float(0.5), Float(0.5), false, true)); got != 0 {
		t.Fatalf("(0.5, 0.5] must be empty, got %d", got)
	}
}

func TestRangeBoundsEmptyAndInverted(t *testing.T) {
	_, ix := scoreTable(t, []Value{Float(0.1), Float(0.9)})
	if got := len(ix.RangeBounds(Float(0.2), Float(0.8), true, true)); got != 0 {
		t.Fatalf("gap range returned %d ids, want 0", got)
	}
	if got := len(ix.RangeBounds(Float(0.9), Float(0.1), true, true)); got != 0 {
		t.Fatalf("inverted range returned %d ids, want 0", got)
	}
	empty := NewTable("e", testSchema(t))
	eix, err := empty.CreateOrderedIndex("score")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(eix.RangeBounds(Null(), Null(), true, true)); got != 0 {
		t.Fatalf("empty index returned %d ids", got)
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
	if _, err := tab.CreateOrderedIndex("score"); err != nil {
		t.Fatal(err)
	}
	hcols := latest(tab).HashIndexColumns()
	if len(hcols) != 2 || len(hcols[0]) != 2 {
		t.Fatalf("HashIndexColumns = %v, want widest-first", hcols)
	}
	if ocols := latest(tab).OrderedIndexColumns(); len(ocols) != 1 || ocols[0] != "score" {
		t.Fatalf("OrderedIndexColumns = %v", ocols)
	}
	if _, ok := latest(tab).OrderedIndexOn("score"); !ok {
		t.Fatal("OrderedIndexOn(score) missing")
	}
	if _, ok := latest(tab).OrderedIndexOn("name"); ok {
		t.Fatal("OrderedIndexOn(name) should not exist")
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
	op, err := NewIndexLookup(latest(tab), []string{"name"}, [][]Value{{Text("a")}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(Collect(NewRowsFromBatches(op))); got != 3 {
		t.Fatalf("lookup a: %d rows, want 3", got)
	}
	// Multi-tuple (IN) lookup.
	op, err = NewIndexLookup(latest(tab), []string{"name"}, [][]Value{{Text("a")}, {Text("b")}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(Collect(NewRowsFromBatches(op))); got != 6 {
		t.Fatalf("lookup a,b: %d rows, want 6", got)
	}
	if _, err := NewIndexLookup(latest(tab), []string{"score"}, [][]Value{{Float(1)}}, nil); err == nil {
		t.Fatal("lookup without index must fail")
	}
}

func TestIndexRangeOp(t *testing.T) {
	tab, _ := scoreTable(t, []Value{Float(0.1), Float(0.4), Float(0.6), Float(0.9)})
	op, err := NewIndexRange(latest(tab), "score", Float(0.2), Float(0.7), true, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows := Collect(NewRowsFromBatches(op))
	if len(rows) != 2 {
		t.Fatalf("range rows = %d, want 2", len(rows))
	}
	// Rows come back in ascending value order.
	if rows[0][2].AsFloat() != 0.4 || rows[1][2].AsFloat() != 0.6 {
		t.Fatalf("range order wrong: %v", rows)
	}
	if _, err := NewIndexRange(latest(tab), "name", Null(), Null(), true, true, nil); err == nil {
		t.Fatal("range without index must fail")
	}
}

// countingIter counts Next calls, for asserting lazy evaluation.
type countingIter struct {
	in Iterator
	n  int
}

func (c *countingIter) Schema() *Schema { return c.in.Schema() }
func (c *countingIter) Next() (Row, bool) {
	c.n++
	return c.in.Next()
}

func TestHashJoinLazyBuild(t *testing.T) {
	tab := NewTable("t", testSchema(t))
	for i := 0; i < 3; i++ {
		if _, err := tab.Insert(Row{Int(int64(i)), Text("x"), Float(0)}); err != nil {
			t.Fatal(err)
		}
	}
	right := &countingIter{in: NewScan(latest(tab))}
	j, err := NewHashJoin(NewScan(latest(tab)), right, []string{"id"}, []string{"id"}, "r")
	if err != nil {
		t.Fatal(err)
	}
	if right.n != 0 {
		t.Fatalf("build side drained at construction: %d Next calls", right.n)
	}
	if got := len(Collect(j)); got != 3 {
		t.Fatalf("join rows = %d, want 3", got)
	}
	if right.n == 0 {
		t.Fatal("build side never drained")
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
