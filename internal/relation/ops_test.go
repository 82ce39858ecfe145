package relation

import (
	"testing"
	"testing/quick"
)

func opsTable(t *testing.T) *Table {
	t.Helper()
	tbl := NewTable("runs", MustSchema(
		Column{Name: "run", Type: TInt},
		Column{Name: "metric", Type: TText},
		Column{Name: "value", Type: TFloat},
	))
	rows := []Row{
		{Int(1), Text("acc"), Float(0.80)},
		{Int(1), Text("recall"), Float(0.70)},
		{Int(2), Text("acc"), Float(0.85)},
		{Int(2), Text("recall"), Float(0.75)},
		{Int(3), Text("acc"), Float(0.90)},
		{Int(3), Text("recall"), Float(0.65)},
	}
	if err := tbl.InsertMany(rows); err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestScanCollect(t *testing.T) {
	tbl := opsTable(t)
	rows := Collect(NewScan(latest(tbl)))
	if len(rows) != 6 {
		t.Fatalf("scan = %d rows", len(rows))
	}
}

func TestFilter(t *testing.T) {
	tbl := opsTable(t)
	pos := tbl.Schema().Index("metric")
	it := NewFilter(NewScan(latest(tbl)), func(r Row) bool { return Equal(r[pos], Text("acc")) })
	rows := Collect(it)
	if len(rows) != 3 {
		t.Fatalf("filter = %d rows", len(rows))
	}
}

func TestProjectExpression(t *testing.T) {
	tbl := opsTable(t)
	vpos := tbl.Schema().Index("value")
	it, err := NewProject(NewScan(latest(tbl)), []ProjExpr{
		{Name: "pct", Type: TFloat, Eval: func(r Row) Value { return Float(r[vpos].AsFloat() * 100) }},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := Collect(it)
	if rows[0][0].AsFloat() != 80.0 {
		t.Fatalf("expr: %v", rows[0])
	}
}

func TestHashJoin(t *testing.T) {
	left := NewTable("l", MustSchema(Column{Name: "run", Type: TInt}, Column{Name: "acc", Type: TFloat}))
	left.InsertMany([]Row{{Int(1), Float(0.8)}, {Int(2), Float(0.85)}, {Int(4), Float(0.7)}})
	right := NewTable("r", MustSchema(Column{Name: "run", Type: TInt}, Column{Name: "recall", Type: TFloat}))
	right.InsertMany([]Row{{Int(1), Float(0.7)}, {Int(2), Float(0.75)}, {Int(3), Float(0.6)}})

	j, err := NewHashJoin(NewScan(latest(left)), NewScan(latest(right)), []string{"run"}, []string{"run"}, "r")
	if err != nil {
		t.Fatal(err)
	}
	rows := Collect(j)
	if len(rows) != 2 {
		t.Fatalf("join = %d rows", len(rows))
	}
	// schema: run, acc, r.run, recall
	if j.Schema().Index("r.run") < 0 {
		t.Fatalf("join schema: %v", j.Schema().Names())
	}
	for _, r := range rows {
		if r[0].AsInt() != r[2].AsInt() {
			t.Fatalf("join key mismatch: %v", r)
		}
	}
}

func TestHashJoinNullKeysNeverMatch(t *testing.T) {
	left := NewTable("l", MustSchema(Column{Name: "k", Type: TInt}))
	left.Insert(Row{Null()})
	right := NewTable("r", MustSchema(Column{Name: "k", Type: TInt}))
	right.Insert(Row{Null()})
	j, err := NewHashJoin(NewScan(latest(left)), NewScan(latest(right)), []string{"k"}, []string{"k"}, "r")
	if err != nil {
		t.Fatal(err)
	}
	if rows := Collect(j); len(rows) != 0 {
		t.Fatalf("NULL join keys matched: %v", rows)
	}
}

func TestHashJoinDuplicateKeys(t *testing.T) {
	left := NewTable("l", MustSchema(Column{Name: "k", Type: TInt}))
	left.InsertMany([]Row{{Int(1)}, {Int(1)}})
	right := NewTable("r", MustSchema(Column{Name: "k", Type: TInt}))
	right.InsertMany([]Row{{Int(1)}, {Int(1)}, {Int(1)}})
	j, _ := NewHashJoin(NewScan(latest(left)), NewScan(latest(right)), []string{"k"}, []string{"k"}, "r")
	if rows := Collect(j); len(rows) != 6 {
		t.Fatalf("cartesian within key = %d", len(rows))
	}
}

func TestSortAscDesc(t *testing.T) {
	tbl := opsTable(t)
	s, err := NewSort(NewScan(latest(tbl)), []SortKey{{Col: "value", Desc: true}})
	if err != nil {
		t.Fatal(err)
	}
	rows := Collect(s)
	vpos := tbl.Schema().Index("value")
	for i := 1; i < len(rows); i++ {
		if rows[i][vpos].AsFloat() > rows[i-1][vpos].AsFloat() {
			t.Fatal("desc sort violated")
		}
	}
}

func TestSortMultiKeyStable(t *testing.T) {
	tbl := opsTable(t)
	s, _ := NewSort(NewScan(latest(tbl)), []SortKey{{Col: "metric"}, {Col: "run", Desc: true}})
	rows := Collect(s)
	// First three are acc with run 3,2,1; then recall with run 3,2,1.
	if rows[0][1].AsText() != "acc" || rows[0][0].AsInt() != 3 {
		t.Fatalf("multikey sort head: %v", rows[0])
	}
	if rows[3][1].AsText() != "recall" || rows[3][0].AsInt() != 3 {
		t.Fatalf("multikey sort mid: %v", rows[3])
	}
}

func TestLimitOffset(t *testing.T) {
	tbl := opsTable(t)
	rows := Collect(NewLimit(NewScan(latest(tbl)), 2, 1))
	if len(rows) != 2 {
		t.Fatalf("limit = %d", len(rows))
	}
	if rows[0][1].AsText() != "recall" {
		t.Fatalf("offset skipped wrong row: %v", rows[0])
	}
	if got := Collect(NewLimit(NewScan(latest(tbl)), -1, 0)); len(got) != 6 {
		t.Fatal("negative limit should mean unlimited")
	}
	if got := Collect(NewLimit(NewScan(latest(tbl)), 100, 10)); len(got) != 0 {
		t.Fatal("offset past end should be empty")
	}
}

func TestGroupByWithAggregates(t *testing.T) {
	tbl := opsTable(t)
	g, err := NewGroup(NewScan(latest(tbl)), []string{"metric"}, []AggSpec{
		{Kind: AggCountStar, As: "n"},
		{Kind: AggAvg, Col: "value", As: "avg_v"},
		{Kind: AggMax, Col: "value", As: "max_v"},
		{Kind: AggMin, Col: "value", As: "min_v"},
		{Kind: AggSum, Col: "value", As: "sum_v"},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := Collect(g)
	if len(rows) != 2 {
		t.Fatalf("groups = %d", len(rows))
	}
	for _, r := range rows {
		switch r[0].AsText() {
		case "acc":
			if r[1].AsInt() != 3 || r[3].AsFloat() != 0.90 || r[4].AsFloat() != 0.80 {
				t.Fatalf("acc group: %v", r)
			}
			if diff := r[2].AsFloat() - 0.85; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("acc avg: %v", r[2])
			}
		case "recall":
			if r[1].AsInt() != 3 || r[3].AsFloat() != 0.75 || r[4].AsFloat() != 0.65 {
				t.Fatalf("recall group: %v", r)
			}
		default:
			t.Fatalf("unexpected group %v", r[0])
		}
	}
}

func TestGlobalAggregateEmptyInput(t *testing.T) {
	tbl := NewTable("e", MustSchema(Column{Name: "v", Type: TFloat}))
	g, _ := NewGroup(NewScan(latest(tbl)), nil, []AggSpec{
		{Kind: AggCountStar, As: "n"},
		{Kind: AggSum, Col: "v", As: "s"},
	})
	rows := Collect(g)
	if len(rows) != 1 {
		t.Fatalf("global agg rows = %d", len(rows))
	}
	if rows[0][0].AsInt() != 0 || !rows[0][1].IsNull() {
		t.Fatalf("empty agg: %v", rows[0])
	}
}

func TestGroupByEmptyInputNoGroups(t *testing.T) {
	tbl := NewTable("e", MustSchema(Column{Name: "k", Type: TText}, Column{Name: "v", Type: TFloat}))
	g, _ := NewGroup(NewScan(latest(tbl)), []string{"k"}, []AggSpec{{Kind: AggCountStar, As: "n"}})
	if rows := Collect(g); len(rows) != 0 {
		t.Fatalf("grouped empty input should yield 0 rows, got %d", len(rows))
	}
}

func TestAggregatesIgnoreNulls(t *testing.T) {
	tbl := NewTable("n", MustSchema(Column{Name: "v", Type: TFloat}))
	tbl.InsertMany([]Row{{Float(1)}, {Null()}, {Float(3)}})
	g, _ := NewGroup(NewScan(latest(tbl)), nil, []AggSpec{
		{Kind: AggCount, Col: "v", As: "c"},
		{Kind: AggCountStar, As: "cs"},
		{Kind: AggAvg, Col: "v", As: "a"},
	})
	rows := Collect(g)
	if rows[0][0].AsInt() != 2 || rows[0][1].AsInt() != 3 || rows[0][2].AsFloat() != 2.0 {
		t.Fatalf("null handling: %v", rows[0])
	}
}

func TestDistinct(t *testing.T) {
	tbl := NewTable("d", MustSchema(Column{Name: "v", Type: TInt}))
	tbl.InsertMany([]Row{{Int(1)}, {Int(2)}, {Int(1)}, {Int(3)}, {Int(2)}})
	rows := Collect(NewDistinct(NewScan(latest(tbl))))
	if len(rows) != 3 {
		t.Fatalf("distinct = %d", len(rows))
	}
}

func TestSortIsPermutationProperty(t *testing.T) {
	f := func(vals []int8) bool {
		tbl := NewTable("p", MustSchema(Column{Name: "v", Type: TInt}))
		for _, v := range vals {
			tbl.Insert(Row{Int(int64(v))})
		}
		s, _ := NewSort(NewScan(latest(tbl)), []SortKey{{Col: "v"}})
		rows := Collect(s)
		if len(rows) != len(vals) {
			return false
		}
		counts := map[int64]int{}
		for _, v := range vals {
			counts[int64(v)]++
		}
		var prev int64 = -1 << 62
		for _, r := range rows {
			v := r[0].AsInt()
			if v < prev {
				return false
			}
			prev = v
			counts[v]--
		}
		for _, c := range counts {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotCatalog(t *testing.T) {
	db := NewDatabase()
	s := MustSchema(Column{Name: "v", Type: TInt})
	if _, err := db.CreateTable("t1", s); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("T1", s); err == nil {
		t.Fatal("case-insensitive duplicate table must fail")
	}
	if _, ok := db.Table("t1"); !ok {
		t.Fatal("table lookup failed")
	}
	vt := &FuncVirtualTable{TableName: "vt", TableSchema: s, RowsFn: func() []Row { return []Row{{Int(42)}} }}
	if err := db.RegisterVirtual(vt); err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterVirtual(vt); err == nil {
		t.Fatal("duplicate virtual must fail")
	}
	snap := db.SnapshotLatest()
	defer snap.Release()
	it, err := snap.Source("vt")
	if err != nil {
		t.Fatal(err)
	}
	rows := Collect(it)
	if len(rows) != 1 || rows[0][0].AsInt() != 42 {
		t.Fatalf("virtual rows: %v", rows)
	}
	if _, err := snap.Source("missing"); err == nil {
		t.Fatal("missing table must error")
	}
	if _, err := snap.SchemaOf("missing"); err == nil {
		t.Fatal("missing table schema must error")
	}
	names := snap.Names()
	if len(names) != 2 || names[0] != "t1" || names[1] != "vt" {
		t.Fatalf("names: %v", names)
	}
	if !db.DropTable("t1") || db.DropTable("t1") {
		t.Fatal("drop semantics wrong")
	}
}

func TestSchemaConcatDisambiguates(t *testing.T) {
	a := MustSchema(Column{Name: "id", Type: TInt}, Column{Name: "x", Type: TText})
	b := MustSchema(Column{Name: "id", Type: TInt}, Column{Name: "y", Type: TText})
	c, err := Concat(a, b, "b")
	if err != nil {
		t.Fatal(err)
	}
	if c.Index("b.id") < 0 || c.Index("y") < 0 {
		t.Fatalf("concat names: %v", c.Names())
	}
}
