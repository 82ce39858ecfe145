package relation

import "testing"

// TestRefusedSignaturesHoldNoSlot: signatures the group bound refuses are
// remembered beside the memo's entries, not in them, so more refusals than
// the table has signature slots still leave room for one the memo can hold.
func TestRefusedSignaturesHoldNoSlot(t *testing.T) {
	db := NewDatabase()
	tbl, err := db.CreateTable("m", testSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	for i := range ZonePageRows + 10 {
		if _, err := tbl.Insert(Row{Int(int64(i)), Text([]string{"a", "b"}[i%2]), Float(float64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	v := latest(tbl)
	// Grouping by the unique id puts ZonePageRows groups on the page, past
	// memoMaxGroups: every one of these signatures is refused.
	refused := []struct {
		kind AggKind
		col  int
	}{
		{AggCountStar, -1}, {AggCount, 0}, {AggCount, 1}, {AggCount, 2}, {AggSum, 0},
		{AggSum, 2}, {AggMin, 0}, {AggMin, 1}, {AggMax, 2}, {AggAvg, 2},
	}
	if len(refused) <= memoMaxSigs {
		t.Fatalf("%d refused signatures do not outnumber the %d slots", len(refused), memoMaxSigs)
	}
	for _, r := range refused {
		agg := []AggSpec{{Kind: r.kind, As: "a"}}
		// The first statement is refused while building: the partial it
		// built still serves it. The second meets the remembered refusal
		// and decodes the page.
		if v.PageAggs([]int{0}, agg, []int{r.col}, nil, 1).Partial(0, 0) == nil {
			t.Fatalf("%v over column %d: the refused build served no partial", r.kind, r.col)
		}
		if v.PageAggs([]int{0}, agg, []int{r.col}, nil, 1).Partial(0, 0) != nil {
			t.Fatalf("%v over column %d: refusal not remembered", r.kind, r.col)
		}
	}
	if got := db.memo.refusals.Load(); got != int64(len(refused)) {
		t.Fatalf("agg_memo_refusals = %d, want %d", got, len(refused))
	}
	if n := len(tbl.memo.sigs); n != 0 {
		t.Fatalf("refused signatures hold %d memo slots", n)
	}
	pa := v.PageAggs([]int{1}, []AggSpec{{Kind: AggCountStar, As: "n"}}, []int{-1}, nil, 1)
	pa.Partial(0, 0)
	if built, groups := db.memo.built.Load(), db.memo.groups.Load(); built != 1 || groups != 2 {
		t.Fatalf("eligible signature after %d refusals: built %d pages holding %d groups, want 1 and 2", len(refused), built, groups)
	}
	if pa.Partial(0, 0) == nil || db.memo.reused.Load() != 1 {
		t.Fatal("the eligible signature's page partial was not reused")
	}
}
