package relation

import (
	"strings"
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
		r, _ := snap.Table("t")
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
	if same != snap {
		t.Fatal("AsOf(own epoch) should return the snapshot itself")
	}
	release()

	// Lower epoch: a fresh pin with narrowed visibility.
	past, release, err := snap.AsOf(1)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := past.Table("t")
	if got := len(r.Rows()); got != 1 {
		t.Fatalf("rebased rows = %d, want 1", got)
	}
	release()

	// Above the pin: refused — a pinned view must not leak later commits.
	if _, _, err := snap.AsOf(4); err == nil {
		t.Fatal("AsOf above the pinned epoch accepted")
	}
}

func TestSnapshotAsOfPinsAndReleases(t *testing.T) {
	db, _ := travelDB(t, 3)
	latest := db.SnapshotLatest()
	defer latest.Release()
	before := db.Pins()
	cat, release, err := latest.AsOf(2)
	if err != nil {
		t.Fatal(err)
	}
	if db.Pins() != before+1 {
		t.Fatalf("Pins = %d, want %d", db.Pins(), before+1)
	}
	r, _ := cat.Table("t")
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
// epoch stamped at or before t (0 before every stamp, clamped to a
// snapshot's pin, refused before a first stamp above epoch 1), and Restore
// sets the epoch and stamps together.
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
		if got, err := db.EpochAt(at(c.sec)); err != nil || got != int64(c.epoch) {
			t.Fatalf("EpochAt(+%ds) = %d, %v, want %d", c.sec, got, err, c.epoch)
		}
	}
	snap, err := db.SnapshotAt(2)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := snap.EpochAt(at(99)); err != nil || got != 2 {
		t.Fatalf("pinned EpochAt = %d, %v, want the pin 2", got, err)
	}
	snap.Release()

	re := NewDatabase()
	re.Restore(db.Epoch(), db.EpochStamps())
	if re.Epoch() != 4 {
		t.Fatalf("restored epoch %d, want 4", re.Epoch())
	}
	for _, sec := range []int{5, 12, 20, 99} {
		a, errA := re.EpochAt(at(sec))
		b, errB := db.EpochAt(at(sec))
		if a != b || errA != nil || errB != nil {
			t.Fatalf("EpochAt(+%ds): restored %d (%v), live %d (%v)", sec, a, errA, b, errB)
		}
	}
	if e := re.AdvanceEpoch(at(25)); e != 5 {
		t.Fatalf("advance after restore = %d, want 5", e)
	}
	if got := re.EpochStamps(); got[len(got)-1].Wall != at(30).UnixNano() {
		t.Fatalf("advance after restore stamped %v, want clamped to the restored last stamp", got[len(got)-1])
	}

	// Stamps that start above epoch 1, as a snapshot written by the old
	// epoch-retention GC holds them: a time before the first is refused with
	// an error naming its epoch, never resolved to epoch 0.
	re.Restore(db.Epoch(), db.EpochStamps()[2:])
	if got, err := re.EpochAt(at(12)); err == nil || !strings.Contains(err.Error(), "epoch 3") {
		t.Fatalf("EpochAt before the first stamp = %d, %v; want an error naming epoch 3", got, err)
	}
	if got, err := re.EpochAt(at(20)); err != nil || got != 3 {
		t.Fatalf("EpochAt at the first stamp = %d, %v, want 3", got, err)
	}
}
