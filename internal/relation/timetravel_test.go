package relation

import (
	"errors"
	"math"
	"testing"
	"time"
)

// travelDB builds k=1..n committed one row per epoch: after this, epoch e
// sees exactly rows 1..e.
func travelDB(t *testing.T, n int) (*Database, *Table) {
	t.Helper()
	db, tbl := snapDB(t)
	for i := 1; i <= n; i++ {
		if _, err := tbl.Insert(Row{Int(int64(i)), Text("r")}); err != nil {
			t.Fatal(err)
		}
		db.AdvanceEpoch(time.Now())
	}
	return db, tbl
}

func TestSnapshotAtSeesHistoricalPrefix(t *testing.T) {
	db, _ := travelDB(t, 5)
	for e := int64(0); e <= 5; e++ {
		snap, err := db.SnapshotAt(e)
		if err != nil {
			t.Fatalf("SnapshotAt(%d): %v", e, err)
		}
		r, _ := snap.Reader("t")
		if got := len(r.Rows()); got != int(e) {
			t.Fatalf("epoch %d sees %d rows, want %d", e, got, e)
		}
		if snap.Epoch() != e {
			t.Fatalf("snap.Epoch() = %d, want %d", snap.Epoch(), e)
		}
		snap.Release()
	}
}

func TestSnapshotAtRejectsFutureAndNegative(t *testing.T) {
	db, _ := travelDB(t, 2)
	if _, err := db.SnapshotAt(3); err == nil {
		t.Fatal("future epoch accepted")
	}
	if _, err := db.SnapshotAt(-1); err == nil {
		t.Fatal("negative epoch accepted")
	}
}

func TestGCBelowRetiresEpochs(t *testing.T) {
	db, _ := travelDB(t, 3)
	if applied := db.GCBelow(3); applied != 3 {
		t.Fatalf("applied floor = %d, want 3", applied)
	}
	if db.MinEpoch() != 3 {
		t.Fatalf("MinEpoch = %d, want 3", db.MinEpoch())
	}

	// Retired epochs answer with the typed error carrying the floor.
	_, err := db.SnapshotAt(2)
	if !errors.Is(err, ErrEpochRetired) {
		t.Fatalf("SnapshotAt(2) after GC: %v, want ErrEpochRetired", err)
	}
	var retired *EpochRetiredError
	if !errors.As(err, &retired) || retired.Floor != 3 || retired.Epoch != 2 {
		t.Fatalf("typed error = %+v", retired)
	}

	// The floor epoch itself stays queryable and correct.
	snap, err := db.SnapshotAt(3)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	r, _ := snap.Reader("t")
	if got := len(r.Rows()); got != 3 {
		t.Fatalf("floor epoch rows = %d, want 3", got)
	}
}

func TestGCBelowClampsToOldestPin(t *testing.T) {
	db, _ := travelDB(t, 5)
	snap, err := db.SnapshotAt(2)
	if err != nil {
		t.Fatal(err)
	}
	if got := db.OldestPin(); got != 2 {
		t.Fatalf("OldestPin = %d, want 2", got)
	}

	if applied := db.GCBelow(4); applied != 2 {
		t.Fatalf("GC with live pin at 2 applied floor %d, want clamp to 2", applied)
	}
	// The pinned epoch must remain readable.
	r, _ := snap.Reader("t")
	if got := len(r.Rows()); got != 2 {
		t.Fatalf("pinned snapshot rows = %d, want 2", got)
	}
	snap.Release()
	if got := db.OldestPin(); got != math.MaxInt64 {
		t.Fatalf("OldestPin after release = %d, want MaxInt64", got)
	}

	// With the pin gone the floor advances; it never moves backwards.
	if applied := db.GCBelow(4); applied != 4 {
		t.Fatalf("GC after release applied %d, want 4", applied)
	}
	if applied := db.GCBelow(1); applied != 4 {
		t.Fatalf("GC below current floor applied %d, want unchanged 4", applied)
	}
}

func TestGCBelowClampsToCommittedEpoch(t *testing.T) {
	db, _ := travelDB(t, 2)
	if applied := db.GCBelow(10); applied != 2 {
		t.Fatalf("GC above committed epoch applied %d, want clamp to 2", applied)
	}
}

func TestSnapshotAsOfRebases(t *testing.T) {
	db, _ := travelDB(t, 4)
	snap, err := db.SnapshotAt(3)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()

	// Same epoch: the snapshot itself, free.
	same, release, err := snap.AsOf(3)
	if err != nil {
		t.Fatal(err)
	}
	if same != Catalog(snap) {
		t.Fatal("AsOf(own epoch) should return the snapshot itself")
	}
	release()

	// Lower epoch: a fresh pin with narrowed visibility.
	past, release, err := snap.AsOf(1)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := past.Reader("t")
	if got := len(r.Rows()); got != 1 {
		t.Fatalf("rebased rows = %d, want 1", got)
	}
	release()

	// Above the pin: refused — a pinned view must not leak later commits.
	if _, _, err := snap.AsOf(4); err == nil {
		t.Fatal("AsOf above the pinned epoch accepted")
	}
}

func TestDatabaseAsOfPinsAndReleases(t *testing.T) {
	db, _ := travelDB(t, 3)
	before := db.Pins()
	cat, release, err := db.AsOf(2)
	if err != nil {
		t.Fatal(err)
	}
	if db.Pins() != before+1 {
		t.Fatalf("Pins = %d, want %d", db.Pins(), before+1)
	}
	r, _ := cat.Reader("t")
	if got := len(r.Rows()); got != 2 {
		t.Fatalf("rows = %d, want 2", got)
	}
	release()
	if db.Pins() != before {
		t.Fatalf("Pins after release = %d, want %d", db.Pins(), before)
	}
}

// TestEpochClock: every advance is stamped in order, stamps never go
// backwards across a clock step, AS OF TIMESTAMP resolves to the greatest
// epoch stamped at or before t (0 before every stamp, floor−1 once the GC
// retired history, clamped to a snapshot's pin), GCBelow drops retired
// stamps, and Restore sets the epoch, floor and stamps together.
func TestEpochClock(t *testing.T) {
	db := NewDatabase()
	base := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	at := func(sec int) time.Time { return base.Add(time.Duration(sec) * time.Second) }
	for _, sec := range []int{10, 20, 15, 30} { // the third commit's clock stepped back
		db.AdvanceEpoch(at(sec))
	}
	want := []EpochStamp{{1, at(10).UnixNano()}, {2, at(20).UnixNano()}, {3, at(20).UnixNano()}, {4, at(30).UnixNano()}}
	if got := db.EpochStamps(); len(got) != len(want) {
		t.Fatalf("stamps = %v, want %v", got, want)
	} else {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("stamp %d = %v, want %v", i, got[i], want[i])
			}
		}
	}
	for _, c := range []struct{ sec, epoch int }{{5, 0}, {10, 1}, {19, 1}, {20, 3}, {29, 3}, {99, 4}} {
		if got := db.EpochAt(at(c.sec)); got != int64(c.epoch) {
			t.Fatalf("EpochAt(+%ds) = %d, want %d", c.sec, got, c.epoch)
		}
	}
	snap, err := db.SnapshotAt(2)
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.EpochAt(at(99)); got != 2 {
		t.Fatalf("pinned EpochAt = %d, want the pin 2", got)
	}
	snap.Release()

	if applied := db.GCBelow(3); applied != 3 {
		t.Fatalf("applied floor = %d, want 3", applied)
	}
	if got := db.EpochStamps(); len(got) != 2 || got[0].Epoch != 3 {
		t.Fatalf("stamps after GC = %v, want epochs 3 and 4", got)
	}
	if got := db.EpochAt(at(12)); got != 2 {
		t.Fatalf("EpochAt before the retained stamps = %d, want floor-1 = 2", got)
	}

	re := NewDatabase()
	re.Restore(db.Epoch(), db.MinEpoch(), append([]EpochStamp{{2, at(20).UnixNano()}}, db.EpochStamps()...))
	if re.Epoch() != 4 || re.MinEpoch() != 3 {
		t.Fatalf("restored epoch %d floor %d, want 4 and 3", re.Epoch(), re.MinEpoch())
	}
	if got := re.EpochStamps(); len(got) != 2 || got[0].Epoch != 3 {
		t.Fatalf("restored stamps = %v: a stamp below the floor must not be retained", got)
	}
	for _, sec := range []int{12, 20, 99} {
		if a, b := re.EpochAt(at(sec)), db.EpochAt(at(sec)); a != b {
			t.Fatalf("EpochAt(+%ds): restored %d, live %d", sec, a, b)
		}
	}
	if e := re.AdvanceEpoch(at(25)); e != 5 {
		t.Fatalf("advance after restore = %d, want 5", e)
	}
	if got := re.EpochStamps(); got[len(got)-1].Wall != at(30).UnixNano() {
		t.Fatalf("advance after restore stamped %v, want clamped to the restored last stamp", got[len(got)-1])
	}
}

// TestGCKeepsLiveRowsAndIndexes: raising the floor touches no table — every
// row, every RowID and every index entry survive it.
func TestGCKeepsLiveRowsAndIndexes(t *testing.T) {
	db, tbl := snapDB(t)
	if _, err := tbl.CreateHashIndex("k"); err != nil {
		t.Fatal(err)
	}
	keep, _ := tbl.Insert(Row{Int(1), Text("keep")})
	db.AdvanceEpoch(time.Now())
	tbl.Insert(Row{Int(2), Text("later")})
	db.AdvanceEpoch(time.Now())

	if applied := db.GCBelow(2); applied != 2 {
		t.Fatalf("applied floor = %d, want 2", applied)
	}
	if tbl.Len() != 2 {
		t.Fatalf("len after GC = %d, want 2", tbl.Len())
	}
	got, ok := tbl.Get(keep)
	if !ok || got[1].AsText() != "keep" {
		t.Fatalf("row damaged: %v %v", got, ok)
	}
	idx, ok := tbl.HashIndexOn("k")
	if !ok {
		t.Fatal("index lost")
	}
	ids := idx.Lookup(Int(1))
	if len(ids) != 1 || ids[0] != keep {
		t.Fatalf("index lookup = %v, want [%d]", ids, keep)
	}
}
