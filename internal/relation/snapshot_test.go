package relation

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func snapDB(t *testing.T) (*Database, *Table) {
	t.Helper()
	db := NewDatabase()
	tbl, err := db.CreateTable("t", MustSchema(
		Column{Name: "k", Type: TInt, NotNull: true},
		Column{Name: "name", Type: TText},
	))
	if err != nil {
		t.Fatal(err)
	}
	return db, tbl
}

func TestSnapshotSeesOnlyCommittedRows(t *testing.T) {
	db, tbl := snapDB(t)
	tbl.Insert(Row{Int(1), Text("a")})
	db.AdvanceEpoch(time.Now())
	tbl.Insert(Row{Int(2), Text("b")}) // in flight, uncommitted

	snap := db.Snapshot()
	r, _ := snap.Reader("t")
	if got := len(r.Rows()); got != 1 {
		t.Fatalf("committed snapshot rows = %d, want 1", got)
	}
	latest := db.SnapshotLatest()
	lr, _ := latest.Reader("t")
	if got := len(lr.Rows()); got != 2 {
		t.Fatalf("latest snapshot rows = %d, want 2", got)
	}
	// Committing makes the row visible to NEW snapshots only.
	db.AdvanceEpoch(time.Now())
	if got := len(r.Rows()); got != 1 {
		t.Fatalf("pinned snapshot moved: rows = %d", got)
	}
	r2, _ := db.Snapshot().Reader("t")
	if got := len(r2.Rows()); got != 2 {
		t.Fatalf("new snapshot rows = %d, want 2", got)
	}
}

func TestSnapshotIgnoresLaterDeletes(t *testing.T) {
	db, tbl := snapDB(t)
	id, _ := tbl.Insert(Row{Int(1), Text("a")})
	db.AdvanceEpoch(time.Now())

	snap := db.Snapshot()
	tbl.Delete(id)
	db.AdvanceEpoch(time.Now())

	r, _ := snap.Reader("t")
	if _, ok := r.Get(id); !ok {
		t.Fatal("row deleted after the pin must stay visible in the snapshot")
	}
	if got := len(r.Rows()); got != 1 {
		t.Fatalf("snapshot rows = %d, want 1", got)
	}
	r2, _ := db.Snapshot().Reader("t")
	if _, ok := r2.Get(id); ok {
		t.Fatal("deleted row visible in a post-delete snapshot")
	}
	if _, ok := tbl.Get(id); ok {
		t.Fatal("deleted row visible in the latest view")
	}
}

func TestPinnedLatestViewImmuneToLaterDeletes(t *testing.T) {
	// Tombstones are copy-on-write: even a latest-epoch view (which sees
	// in-flight rows) must keep seeing a row deleted after the pin — the
	// pinned state is immutable, not merely epoch-filtered.
	db, tbl := snapDB(t)
	id, _ := tbl.Insert(Row{Int(1), Text("a")}) // in flight, uncommitted
	latest := db.SnapshotLatest()
	r, _ := latest.Reader("t")
	if _, ok := r.Get(id); !ok {
		t.Fatal("latest view must see the in-flight row")
	}
	tbl.Delete(id) // same write epoch as the insert
	if _, ok := r.Get(id); !ok {
		t.Fatal("pinned latest view mutated by a later delete")
	}
	if got := len(r.Rows()); got != 1 {
		t.Fatalf("pinned latest view rows = %d, want 1", got)
	}
	// A fresh latest view reflects the delete.
	r2, _ := db.SnapshotLatest().Reader("t")
	if _, ok := r2.Get(id); ok {
		t.Fatal("fresh latest view still sees the deleted row")
	}
	// An Update after pinning is equally invisible to the pinned view and
	// atomic (old id or new id, never neither) in fresh views.
	nid, err := tbl.Insert(Row{Int(2), Text("b")})
	if err != nil {
		t.Fatal(err)
	}
	pinned, _ := db.SnapshotLatest().Reader("t")
	nid2, err := tbl.Update(nid, Row{Int(3), Text("c")})
	if err != nil {
		t.Fatal(err)
	}
	if row, ok := pinned.Get(nid); !ok || row[0].AsInt() != 2 {
		t.Fatalf("pinned view lost the pre-update version: %v %v", row, ok)
	}
	if _, ok := pinned.Get(nid2); ok {
		t.Fatal("pinned view sees the post-update version")
	}
}

func TestSnapshotIndexLookupFiltersVisibility(t *testing.T) {
	db, tbl := snapDB(t)
	if _, err := tbl.CreateHashIndex("name"); err != nil {
		t.Fatal(err)
	}
	id0, _ := tbl.Insert(Row{Int(1), Text("x")})
	db.AdvanceEpoch(time.Now())
	snap := db.Snapshot()

	tbl.Delete(id0)
	tbl.Insert(Row{Int(2), Text("x")})
	db.AdvanceEpoch(time.Now())

	r, _ := snap.Reader("t")
	ix, ok := r.HashIndexOn("name")
	if !ok {
		t.Fatal("index missing from snapshot")
	}
	rows := r.RowsByIDs(ix.Lookup(Text("x")))
	if len(rows) != 1 || rows[0][0].AsInt() != 1 {
		t.Fatalf("snapshot lookup = %v, want only the old row", rows)
	}
	lrows := tbl.RowsByIDs(ix.Lookup(Text("x")))
	if len(lrows) != 1 || lrows[0][0].AsInt() != 2 {
		t.Fatalf("latest lookup = %v, want only the new row", lrows)
	}
}

func TestSnapshotMultiTableConsistentCut(t *testing.T) {
	// A writer inserts a matching row into two tables per transaction; a
	// committed-epoch snapshot must never observe the pair torn.
	db := NewDatabase()
	a, _ := db.CreateTable("a", MustSchema(Column{Name: "k", Type: TInt}))
	bt, _ := db.CreateTable("b", MustSchema(Column{Name: "k", Type: TInt}))

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int64(0); i < 20000 && !stop.Load(); i++ {
			a.Insert(Row{Int(i)})
			bt.Insert(Row{Int(i)})
			db.AdvanceEpoch(time.Now())
		}
	}()
	for i := 0; i < 500; i++ {
		snap := db.Snapshot()
		ra, _ := snap.Reader("a")
		rb, _ := snap.Reader("b")
		na, nb := len(ra.Rows()), len(rb.Rows())
		if na != nb {
			stop.Store(true)
			wg.Wait()
			t.Fatalf("torn snapshot: |a| = %d, |b| = %d at epoch %d", na, nb, snap.Epoch())
		}
	}
	stop.Store(true)
	wg.Wait()
}

func TestSnapshotScanDoesNotBlockWriter(t *testing.T) {
	// Readers iterate pinned states while a writer appends; under -race this
	// proves the lock-free read path is sound.
	db, tbl := snapDB(t)
	for i := 0; i < 100; i++ {
		tbl.Insert(Row{Int(int64(i)), Text("seed")})
	}
	db.AdvanceEpoch(time.Now())

	var writer, readers sync.WaitGroup
	var stop atomic.Bool
	writer.Add(1)
	go func() {
		defer writer.Done()
		// Bounded: snapshot readers exert no backpressure on the writer.
		for i := 100; i < 50000 && !stop.Load(); i++ {
			tbl.Insert(Row{Int(int64(i)), Text("w")})
			if i%10 == 0 {
				db.AdvanceEpoch(time.Now())
			}
		}
	}()
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 200; i++ {
				snap := db.Snapshot()
				tr, _ := snap.Reader("t")
				n := 0
				tr.Scan(func(_ RowID, row Row) bool {
					_ = row[0].AsInt()
					n++
					return true
				})
				if n < 100 {
					t.Errorf("snapshot lost committed rows: %d < 100", n)
					return
				}
			}
		}()
	}
	readers.Wait()
	stop.Store(true)
	writer.Wait()
}

func TestSnapshotPinAccounting(t *testing.T) {
	db, tbl := snapDB(t)
	tbl.Insert(Row{Int(1), Text("a")})
	db.AdvanceEpoch(time.Now())

	if got := db.Pins(); got != 0 {
		t.Fatalf("fresh database pins = %d, want 0", got)
	}
	s1 := db.Snapshot()
	s2 := db.SnapshotLatest()
	if got := db.Pins(); got != 2 {
		t.Fatalf("pins after two snapshots = %d, want 2", got)
	}
	s1.Release()
	if got := db.Pins(); got != 1 {
		t.Fatalf("pins after one release = %d, want 1", got)
	}
	// Release is idempotent: a double release must not underflow the gauge.
	s1.Release()
	if got := db.Pins(); got != 1 {
		t.Fatalf("pins after double release = %d, want 1", got)
	}
	// A released snapshot stays readable: release ends retention
	// accounting, it does not invalidate the pinned state.
	if r, ok := s1.Reader("t"); !ok || len(r.Rows()) != 1 {
		t.Fatalf("released snapshot is no longer readable")
	}
	s2.Release()
	if got := db.Pins(); got != 0 {
		t.Fatalf("pins after all releases = %d, want 0", got)
	}
	// Nil snapshots are safe to release (error paths call it blindly).
	var nilSnap *Snapshot
	nilSnap.Release()
}

func TestSnapshotPinAccountingConcurrent(t *testing.T) {
	db, tbl := snapDB(t)
	tbl.Insert(Row{Int(1), Text("a")})
	db.AdvanceEpoch(time.Now())

	const G = 16
	var wg sync.WaitGroup
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s := db.Snapshot()
				if _, ok := s.Reader("t"); !ok {
					t.Error("snapshot lost table t")
				}
				s.Release()
			}
		}()
	}
	wg.Wait()
	if got := db.Pins(); got != 0 {
		t.Fatalf("pins after balanced concurrent pin/release = %d, want 0", got)
	}
}
