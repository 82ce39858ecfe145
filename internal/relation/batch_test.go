package relation

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
)

// rowsEqual compares two row slices in order (values rendered with type).
func rowsEqual(t *testing.T, got, want []Row) {
	t.Helper()
	render := func(rows []Row) []string {
		out := make([]string, len(rows))
		for i, r := range rows {
			parts := make([]string, len(r))
			for j, v := range r {
				parts[j] = fmt.Sprintf("%d:%s", v.Type(), v.String())
			}
			out[i] = strings.Join(parts, "|")
		}
		return out
	}
	g, w := render(got), render(want)
	if len(g) != len(w) {
		t.Fatalf("row counts differ: got %d want %d", len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("row %d differs:\ngot  %s\nwant %s", i, g[i], w[i])
		}
	}
}

// randomBatchTable builds a table with NULLs and duplicates spread across
// several epochs, whose boundaries fall mid-batch — the shapes batch scans
// must agree with the row scan on.
func randomBatchTable(t *testing.T, rng *rand.Rand, rows int) (*Database, *Table) {
	t.Helper()
	db := NewDatabase()
	tbl, err := db.CreateTable("m", MustSchema(
		Column{Name: "k", Type: TText},
		Column{Name: "n", Type: TInt},
		Column{Name: "v", Type: TFloat},
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		k := Null()
		if rng.Intn(8) > 0 {
			k = Text(fmt.Sprintf("k%d", rng.Intn(5)))
		}
		v := Null()
		if rng.Intn(8) > 0 {
			v = Float(float64(rng.Intn(100)) / 10)
		}
		if _, err := tbl.Insert(Row{k, Int(int64(rng.Intn(50))), v}); err != nil {
			t.Fatal(err)
		}
		if rng.Intn(20) == 0 {
			db.AdvanceEpoch(time.Now())
		}
	}
	db.AdvanceEpoch(time.Now())
	return db, tbl
}

func collectBatches(t *testing.T, it BatchIterator) []Row {
	t.Helper()
	return slices.Collect(RowsOf(it))
}

func TestBatchScanMatchesRowScan(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{0, 1, 7, 100, 3000} {
		db, tbl := randomBatchTable(t, rng, n)
		// Latest visibility, with a batch size that forces partial chunks.
		got := collectBatches(t, NewBatchScan(latest(tbl), nil, 64))
		rowsEqual(t, got, latest(tbl).Rows())
		// Snapshot visibility at the committed epoch and at a random
		// mid-history one: pinned batch scans and Rows must both agree with
		// the rows whose born epoch is at or below the pin.
		for _, e := range []int64{db.Epoch(), rng.Int63n(db.Epoch() + 1)} {
			snap, err := db.SnapshotAt(e)
			if err != nil {
				t.Fatal(err)
			}
			sv, _ := snap.Table("m")
			var want []Row
			rows, born := tbl.Versions()
			for i, r := range rows {
				if born[i] <= e {
					want = append(want, r)
				}
			}
			rowsEqual(t, collectBatches(t, NewBatchScan(sv, nil, 64)), want)
			rowsEqual(t, sv.Rows(), want)
		}
	}
}

func TestBatchScanMidEpochSnapshotExcludesInFlightRows(t *testing.T) {
	db, _ := randomBatchTable(t, rand.New(rand.NewSource(5)), 200)
	tbl, _ := db.Table("m")
	snap := db.Snapshot()
	sv, _ := snap.Table("m")
	want := sv.Rows()
	// Uncommitted writes after the pin must stay invisible to the pinned
	// batch scan even though they are in the shared row store.
	for i := 0; i < 50; i++ {
		if _, err := tbl.Insert(Row{Text("late"), Int(int64(i)), Float(1)}); err != nil {
			t.Fatal(err)
		}
	}
	rowsEqual(t, collectBatches(t, NewBatchScan(sv, nil, 64)), want)
}

func TestBatchScanColumnPruning(t *testing.T) {
	_, tbl := randomBatchTable(t, rand.New(rand.NewSource(6)), 300)
	sc := NewBatchScan(latest(tbl), []int{0, 2}, 128)
	total := 0
	for {
		b, ok := sc.NextBatch()
		if !ok {
			break
		}
		if b.Cols[1] != nil {
			t.Fatal("pruned column 1 was materialized")
		}
		if len(b.Cols[0]) != b.Size() || len(b.Cols[2]) != b.Size() {
			t.Fatalf("needed columns not fully materialized: %d/%d of %d",
				len(b.Cols[0]), len(b.Cols[2]), b.Size())
		}
		total += b.Len()
	}
	if total != tbl.Len() {
		t.Fatalf("selected %d rows, table has %d", total, tbl.Len())
	}
}

func TestBatchAdaptersRoundtrip(t *testing.T) {
	_, tbl := randomBatchTable(t, rand.New(rand.NewSource(7)), 500)
	want := latest(tbl).Rows()
	got := collectBatches(t, NewBatchRows(tbl.Schema(), func() []Row { return want }, nil, 33))
	rowsEqual(t, got, want)
}

func TestBatchFilterMatchesRowFilter(t *testing.T) {
	_, tbl := randomBatchTable(t, rand.New(rand.NewSource(8)), 1000)
	lit := Float(5)
	pred := func(r Row) bool { return !r[2].IsNull() && Compare(r[2], lit) > 0 }
	want := slices.Collect(Filter(scan(tbl), pred))
	got := collectBatches(t, NewBatchFilter(NewBatchScan(latest(tbl), nil, 100), func(b *Batch) {
		sel := b.Sel[:0]
		for _, i := range b.Sel {
			v := &b.Cols[2][i]
			if !v.IsNull() && ComparePtr(v, &lit) > 0 {
				sel = append(sel, i)
			}
		}
		b.Sel = sel
	}))
	rowsEqual(t, got, want)
}

func batchProjectExprs() []BatchProjExpr {
	return []BatchProjExpr{
		PassThrough("k", TText, 0),
		{Name: "doubled", Type: TFloat, NeedCols: []int{2}, Eval: func(r Row) Value {
			if r[2].IsNull() {
				return Null()
			}
			return Float(r[2].AsFloat() * 2)
		}},
		{Name: "nk", Type: TText, NeedCols: []int{0, 1}, Eval: func(r Row) Value {
			if r[0].IsNull() {
				return Null()
			}
			return Text(fmt.Sprintf("%s#%d", r[0].AsText(), r[1].AsInt()))
		}},
	}
}

func TestBatchProjectMatchesRowProject(t *testing.T) {
	_, tbl := randomBatchTable(t, rand.New(rand.NewSource(9)), 1200)
	exprs := batchProjectExprs()
	rowExprs := make([]ProjExpr, len(exprs))
	for i, e := range exprs {
		rowExprs[i] = ProjExpr{Name: e.Name, Type: e.Type, Eval: e.Eval}
		if e.Eval == nil {
			pos := e.Input
			rowExprs[i].Eval = func(r Row) Value { return r[pos] }
		}
	}
	_, rp, err := Project(scan(tbl), rowExprs)
	if err != nil {
		t.Fatal(err)
	}
	bp, err := NewBatchProject(NewBatchScan(latest(tbl), nil, 77), exprs)
	if err != nil {
		t.Fatal(err)
	}
	rowsEqual(t, collectBatches(t, bp), slices.Collect(rp))
}

// aggregateBatches drains in through one PartialAgg sink, the way a serial
// statement does.
func aggregateBatches(t *testing.T, in BatchIterator, groupBy []string, aggs []AggSpec) []Row {
	t.Helper()
	pa, err := NewPartialAgg(in.Schema(), groupBy, aggs)
	if err != nil {
		t.Fatal(err)
	}
	pa.Consume(in)
	return pa.Rows()
}

func TestBatchGroupMatchesRowGroup(t *testing.T) {
	_, tbl := randomBatchTable(t, rand.New(rand.NewSource(10)), 2000)
	groupBy := []string{"k"}
	aggs := []AggSpec{
		{Kind: AggCountStar, As: "cnt"},
		{Kind: AggCount, Col: "v", As: "cv"},
		{Kind: AggSum, Col: "v", As: "sv"},
		{Kind: AggAvg, Col: "v", As: "av"},
		{Kind: AggMin, Col: "v", As: "mn"},
		{Kind: AggMax, Col: "n", As: "mx"},
	}
	_, rg, err := Group(tbl.Schema(), scan(tbl), groupBy, aggs)
	if err != nil {
		t.Fatal(err)
	}
	// An unmerged sink emits groups in first-seen order, as Group does over
	// the same input order, so the comparison is exact, not just multiset.
	rowsEqual(t, aggregateBatches(t, NewBatchScan(latest(tbl), nil, 128), groupBy, aggs), slices.Collect(rg))
}

// TestMergeReadsItsOperand: Merge copies the groups it takes from its
// operand, so one partial merged into several sinks (a page partial of the
// table memo) and a sink merged into afterwards leave the operand as built.
func TestMergeReadsItsOperand(t *testing.T) {
	_, tbl := randomBatchTable(t, rand.New(rand.NewSource(12)), 1500)
	groupBy := []string{"k"}
	aggs := []AggSpec{{Kind: AggCountStar, As: "cnt"}, {Kind: AggSum, Col: "v", As: "sv"}, {Kind: AggMax, Col: "n", As: "mx"}}
	sink := func(lo, hi int) *PartialAgg {
		scan := NewBatchScan(latest(tbl), nil, 128)
		scan.SetRange(lo, hi)
		pa, err := NewPartialAgg(tbl.Schema(), groupBy, aggs)
		if err != nil {
			t.Fatal(err)
		}
		pa.Consume(scan)
		return pa
	}
	part := sink(0, 700)
	want := sink(0, 700)
	want.Merge(sink(700, 700)) // renders in key order, as a merged part does
	for range 2 {
		into := sink(700, 700)
		into.Merge(part)
		into.Merge(sink(0, 50))
		into.Rows()
	}
	probe := sink(700, 700)
	probe.Merge(part)
	rowsEqual(t, probe.Rows(), want.Rows())
}

func TestBatchGroupGlobalAggregateOverEmptyInput(t *testing.T) {
	db := NewDatabase()
	tbl, err := db.CreateTable("e", MustSchema(Column{Name: "x", Type: TInt}))
	if err != nil {
		t.Fatal(err)
	}
	aggs := []AggSpec{{Kind: AggCountStar, As: "n"}, {Kind: AggSum, Col: "x", As: "s"}}
	_, rg, _ := Group(tbl.Schema(), scan(tbl), nil, aggs)
	want := slices.Collect(rg)
	rowsEqual(t, aggregateBatches(t, NewBatchScan(latest(tbl), nil, 0), nil, aggs), want)
	// An empty resolved row set behaves the same.
	rowsEqual(t, aggregateBatches(t, NewBatchRows(tbl.Schema(), latest(tbl).Rows, nil, 16), nil, aggs), want)
}

func TestBatchHashJoinMatchesRowHashJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	db, left := randomBatchTable(t, rng, 800)
	right, err := db.CreateTable("r", MustSchema(
		Column{Name: "n", Type: TInt},
		Column{Name: "tag", Type: TText},
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		n := Null()
		if rng.Intn(10) > 0 {
			n = Int(int64(rng.Intn(50)))
		}
		if _, err := right.Insert(Row{n, Text(fmt.Sprintf("t%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	schema, err := Concat(left.Schema(), right.Schema(), "r")
	if err != nil {
		t.Fatal(err)
	}
	_, rj, err := HashJoin(left.Schema(), scan(left), right.Schema(), scan(right), []string{"n"}, []string{"n"}, "r")
	if err != nil {
		t.Fatal(err)
	}
	want := slices.Collect(rj)
	if len(want) == 0 {
		t.Fatal("join produced no rows; weak test data")
	}
	for _, buildLeft := range []bool{false, true} {
		var bj *BatchHashJoinOp
		if buildLeft {
			// Probe side is the right table.
			bj, err = NewBatchHashJoin(NewBatchScan(latest(right), nil, 97), NewBatchScan(latest(left), nil, 97), []int{0}, []int{1}, schema, true)
		} else {
			bj, err = NewBatchHashJoin(NewBatchScan(latest(left), nil, 97), NewBatchScan(latest(right), nil, 97), []int{1}, []int{0}, schema, false)
		}
		if err != nil {
			t.Fatal(err)
		}
		got := collectBatches(t, bj)
		if buildLeft {
			// Output streams in probe-side order; the row join always probes
			// with the left input, so building left permutes the rows.
			key := func(r Row) string { return fmt.Sprint(r) }
			sort.Slice(got, func(a, b int) bool { return key(got[a]) < key(got[b]) })
			want = append([]Row(nil), want...)
			sort.Slice(want, func(a, b int) bool { return key(want[a]) < key(want[b]) })
		}
		rowsEqual(t, got, want)
	}
}

// TestBatchHashJoinBoundsOutputBatches joins 2,000 × 2,000 rows on a single
// key: every probe row matches every build row, so an unbounded probe would
// emit a probe batch's worth of matches (1,024 × 2,000 rows) at once.
func TestBatchHashJoinBoundsOutputBatches(t *testing.T) {
	const n = 2000
	db := NewDatabase()
	mk := func(name string) *Table {
		tbl, err := db.CreateTable(name, MustSchema(Column{Name: "k", Type: TInt}, Column{Name: "i", Type: TInt}))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if _, err := tbl.Insert(Row{Int(7), Int(int64(i))}); err != nil {
				t.Fatal(err)
			}
		}
		return tbl
	}
	left, right := mk("l"), mk("r")
	schema, err := Concat(left.Schema(), right.Schema(), "r")
	if err != nil {
		t.Fatal(err)
	}
	bj, err := NewBatchHashJoin(NewBatchScan(latest(left), nil, 0), NewBatchScan(latest(right), nil, 0), []int{0}, []int{0}, schema, false)
	if err != nil {
		t.Fatal(err)
	}
	total, lastL, lastR := 0, int64(0), int64(-1)
	for {
		b, ok := bj.NextBatch()
		if !ok {
			break
		}
		if b.Size() > DefaultBatchSize || b.Len() != b.Size() {
			t.Fatalf("batch of %d rows (%d selected), want at most %d, all selected", b.Size(), b.Len(), DefaultBatchSize)
		}
		for _, i := range b.Sel {
			// Resuming mid-probe-row must neither skip nor repeat a match:
			// (l.i, r.i) advances in lexicographic order, one step at a time.
			l, r := b.Cols[1][i].AsInt(), b.Cols[3][i].AsInt()
			if r != (lastR+1)%n || l != lastL+(lastR+1)/n {
				t.Fatalf("row %d is (%d, %d) after (%d, %d)", total, l, r, lastL, lastR)
			}
			lastL, lastR = l, r
			total++
		}
	}
	if total != n*n {
		t.Fatalf("joined %d rows, want %d", total, n*n)
	}
}
