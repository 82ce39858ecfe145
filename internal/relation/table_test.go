package relation

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

// latest pins t at its in-flight write epoch: every published row, the view
// Database.SnapshotLatest gives of a whole database.
func latest(t *Table) *TableSnapshot { return t.At(t.writeEpoch()) }

func testSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema(
		Column{Name: "id", Type: TInt, NotNull: true},
		Column{Name: "name", Type: TText},
		Column{Name: "score", Type: TFloat},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSchemaDuplicateColumn(t *testing.T) {
	_, err := NewSchema(Column{Name: "a", Type: TInt}, Column{Name: "A", Type: TText})
	if err == nil {
		t.Fatal("case-insensitive duplicate must fail")
	}
}

func TestSchemaIndexCaseInsensitive(t *testing.T) {
	s := testSchema(t)
	if s.Index("NAME") != 1 || s.Index("name") != 1 {
		t.Fatal("case-insensitive lookup failed")
	}
	if s.Index("missing") != -1 {
		t.Fatal("missing column should be -1")
	}
}

func TestSchemaValidateArity(t *testing.T) {
	s := testSchema(t)
	if _, err := s.Validate(Row{Int(1)}); err == nil {
		t.Fatal("short row must fail")
	}
}

func TestSchemaValidateNotNull(t *testing.T) {
	s := testSchema(t)
	if _, err := s.Validate(Row{Null(), Text("x"), Float(1)}); err == nil {
		t.Fatal("NULL in NOT NULL column must fail")
	}
}

func TestSchemaValidateCoercion(t *testing.T) {
	s := testSchema(t)
	r, err := s.Validate(Row{Text("7"), Text("x"), Int(3)})
	if err != nil {
		t.Fatal(err)
	}
	if r[0].AsInt() != 7 || r[2].AsFloat() != 3.0 {
		t.Fatalf("coercion failed: %v", r)
	}
}

func TestTableInsertGet(t *testing.T) {
	tbl := NewTable("t", testSchema(t))
	id, err := tbl.Insert(Row{Int(1), Text("a"), Float(0.5)})
	if err != nil {
		t.Fatal(err)
	}
	r, ok := latest(tbl).Get(id)
	if !ok || r[1].AsText() != "a" {
		t.Fatalf("get: %v %v", r, ok)
	}
	for _, missing := range []RowID{-1, id + 1} {
		if _, ok := latest(tbl).Get(missing); ok {
			t.Fatalf("get(%d) found a row that was never inserted", missing)
		}
	}
	if tbl.Len() != 1 {
		t.Fatalf("len = %d", tbl.Len())
	}
}

func TestTableScanOrder(t *testing.T) {
	tbl := NewTable("t", testSchema(t))
	for i := 0; i < 10; i++ {
		if _, err := tbl.Insert(Row{Int(int64(i)), Text("x"), Float(0)}); err != nil {
			t.Fatal(err)
		}
	}
	var got []int64
	latest(tbl).Scan(func(_ RowID, r Row) bool {
		got = append(got, r[0].AsInt())
		return true
	})
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("scan order broken at %d: %v", i, got)
		}
	}
}

func TestTableScanEarlyStop(t *testing.T) {
	tbl := NewTable("t", testSchema(t))
	for i := 0; i < 10; i++ {
		tbl.Insert(Row{Int(int64(i)), Text("x"), Float(0)})
	}
	n := 0
	latest(tbl).Scan(func(_ RowID, _ Row) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Fatalf("early stop failed, n=%d", n)
	}
}

func TestHashIndexLookupAndMaintenance(t *testing.T) {
	tbl := NewTable("t", testSchema(t))
	ix, err := tbl.CreateHashIndex("name")
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]RowID, 0)
	for i := 0; i < 6; i++ {
		id, _ := tbl.Insert(Row{Int(int64(i)), Text(fmt.Sprintf("n%d", i%2)), Float(0)})
		ids = append(ids, id)
	}
	n0 := func() int { return len(latest(tbl).RowsByIDs(ix.Lookup(Text("n0")))) }
	if got := n0(); got != 3 {
		t.Fatalf("lookup n0 = %d rows", got)
	}
	// Rows inserted after the index exists are maintained into it.
	if _, err := tbl.Insert(Row{Int(6), Text("n0"), Float(0)}); err != nil {
		t.Fatal(err)
	}
	if got := n0(); got != 4 {
		t.Fatalf("after insert lookup n0 = %d rows", got)
	}
	if got := ix.Lookup(Text("n1")); len(got) != 3 || got[0] != ids[1] {
		t.Fatalf("lookup n1 = %v", got)
	}
}

func TestHashIndexBuildOnExistingRows(t *testing.T) {
	tbl := NewTable("t", testSchema(t))
	tbl.Insert(Row{Int(1), Text("a"), Float(0)})
	tbl.Insert(Row{Int(2), Text("a"), Float(0)})
	ix, err := tbl.CreateHashIndex("name")
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.Lookup(Text("a")); len(got) != 2 {
		t.Fatalf("index over existing rows: %v", got)
	}
}

func TestHashIndexComposite(t *testing.T) {
	tbl := NewTable("t", testSchema(t))
	ix, _ := tbl.CreateHashIndex("id", "name")
	tbl.Insert(Row{Int(1), Text("a"), Float(0)})
	tbl.Insert(Row{Int(1), Text("b"), Float(0)})
	if got := ix.Lookup(Int(1), Text("a")); len(got) != 1 {
		t.Fatalf("composite lookup: %v", got)
	}
	if got := ix.Lookup(Int(1)); got != nil {
		t.Fatal("wrong arity lookup must return nil")
	}
}

func TestOrderedIndexRange(t *testing.T) {
	tbl := NewTable("t", testSchema(t))
	ix, err := tbl.CreateOrderedIndex("score")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []float64{0.5, 0.1, 0.9, 0.3, 0.7} {
		tbl.Insert(Row{Int(1), Text("x"), Float(f)})
	}
	ids := ix.Range(Float(0.3), Float(0.7))
	if len(ids) != 3 {
		t.Fatalf("range [0.3,0.7] = %d ids", len(ids))
	}
	var prev float64 = -1
	for _, id := range ids {
		r, _ := latest(tbl).Get(id)
		f := r[2].AsFloat()
		if f < prev {
			t.Fatal("range result not ascending")
		}
		prev = f
	}
	if all := ix.Range(Null(), Null()); len(all) != 5 {
		t.Fatalf("unbounded range = %d", len(all))
	}
}

func TestOrderedIndexMinMax(t *testing.T) {
	tbl := NewTable("t", testSchema(t))
	ix, _ := tbl.CreateOrderedIndex("score")
	if _, ok := ix.Min(); ok {
		t.Fatal("empty index has no min")
	}
	tbl.Insert(Row{Int(1), Text("x"), Float(0.7)})
	tbl.Insert(Row{Int(2), Text("y"), Float(0.2)})
	id, ok := ix.Min()
	if !ok {
		t.Fatal("min missing")
	}
	r, _ := latest(tbl).Get(id)
	if r[2].AsFloat() != 0.2 {
		t.Fatalf("min = %v", r)
	}
	id, _ = ix.Max()
	r, _ = latest(tbl).Get(id)
	if r[2].AsFloat() != 0.7 {
		t.Fatalf("max = %v", r)
	}
}

func TestTableConcurrentInserts(t *testing.T) {
	tbl := NewTable("t", testSchema(t))
	tbl.CreateHashIndex("name")
	var wg sync.WaitGroup
	const workers, per = 8, 100
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := tbl.Insert(Row{Int(int64(w*per + i)), Text("c"), Float(0)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if tbl.Len() != workers*per {
		t.Fatalf("len = %d want %d", tbl.Len(), workers*per)
	}
	ix, _ := latest(tbl).HashIndexOn("name")
	if got := len(ix.Lookup(Text("c"))); got != workers*per {
		t.Fatalf("index count = %d", got)
	}
}

func TestOrderedIndexSortedProperty(t *testing.T) {
	// Property: for any insert sequence, Range(NULL,NULL) is sorted.
	f := func(vals []int16) bool {
		tbl := NewTable("t", MustSchema(Column{Name: "v", Type: TInt}))
		ix, _ := tbl.CreateOrderedIndex("v")
		for _, v := range vals {
			tbl.Insert(Row{Int(int64(v))})
		}
		ids := ix.Range(Null(), Null())
		var prev int64 = -1 << 62
		for _, id := range ids {
			r, _ := latest(tbl).Get(id)
			if r[0].AsInt() < prev {
				return false
			}
			prev = r[0].AsInt()
		}
		return len(ids) == len(vals)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestLoadVersionsRefusesDecreasingBorn(t *testing.T) {
	tbl := NewTable("t", testSchema(t))
	row := func(i int) Row { return Row{Int(int64(i)), Text("x"), Float(0)} }
	if err := tbl.LoadVersions([]Row{row(0), row(1)}, []int64{1, 2}); err != nil {
		t.Fatal(err)
	}
	for _, born := range [][]int64{{1}, {3, 2}} {
		rows := make([]Row, len(born))
		for i := range rows {
			rows[i] = row(i)
		}
		if err := tbl.LoadVersions(rows, born); err == nil {
			t.Fatalf("born %v after a store ending at 2 accepted", born)
		}
	}
	if err := tbl.LoadVersions([]Row{row(2), row(3)}, []int64{2, 5}); err != nil {
		t.Fatal(err)
	}
	if _, born := tbl.Versions(); len(born) != 4 || born[3] != 5 {
		t.Fatalf("born = %v, want the two accepted loads only", born)
	}
}
