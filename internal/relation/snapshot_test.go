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
	r, _ := snap.Table("t")
	if got := len(r.Rows()); got != 1 {
		t.Fatalf("committed snapshot rows = %d, want 1", got)
	}
	latest := db.SnapshotLatest()
	lr, _ := latest.Table("t")
	if got := len(lr.Rows()); got != 2 {
		t.Fatalf("latest snapshot rows = %d, want 2", got)
	}
	// Committing makes the row visible to NEW snapshots only.
	db.AdvanceEpoch(time.Now())
	if got := len(r.Rows()); got != 1 {
		t.Fatalf("pinned snapshot moved: rows = %d", got)
	}
	r2, _ := db.Snapshot().Table("t")
	if got := len(r2.Rows()); got != 2 {
		t.Fatalf("new snapshot rows = %d, want 2", got)
	}
}

func TestSnapshotLenIsVisibleRows(t *testing.T) {
	// Len is what the planner sizes joins and prints [~N rows] from: it must
	// count the rows the pin can see, not the rows its state holds.
	db, tbl := snapDB(t)
	for i := 0; i < 3; i++ {
		tbl.Insert(Row{Int(int64(i)), Text("committed")})
	}
	db.AdvanceEpoch(time.Now())
	for i := 0; i < 5; i++ {
		tbl.Insert(Row{Int(int64(10 + i)), Text("in flight")})
	}
	check := func(what string, snap *Snapshot, want int) {
		t.Helper()
		r, _ := snap.Table("t")
		if got, rows := r.Len(), len(r.Rows()); got != want || rows != want {
			t.Fatalf("%s: Len() = %d over %d visible rows, want %d", what, got, rows, want)
		}
	}
	check("committed pin over in-flight rows", db.Snapshot(), 3)
	check("latest pin", db.SnapshotLatest(), 8)
	asOf, err := db.SnapshotAt(0)
	if err != nil {
		t.Fatal(err)
	}
	check("AS OF 0", asOf, 0)
	if tbl.Len() != 8 {
		t.Fatalf("table Len() = %d, want 8", tbl.Len())
	}
}

func TestPinnedLatestViewImmuneToLaterInserts(t *testing.T) {
	// A latest-epoch view sees in-flight rows, yet rows inserted after the
	// pin in the very same write epoch must stay invisible to it: the pinned
	// prefix is fixed by the state it pinned, not merely by its epoch.
	db, tbl := snapDB(t)
	id, _ := tbl.Insert(Row{Int(1), Text("a")}) // in flight, uncommitted
	latest := db.SnapshotLatest()
	r, _ := latest.Table("t")
	if _, ok := r.Get(id); !ok {
		t.Fatal("latest view must see the in-flight row")
	}
	nid, _ := tbl.Insert(Row{Int(2), Text("b")}) // same write epoch
	if _, ok := r.Get(nid); ok {
		t.Fatal("pinned latest view sees a row inserted after the pin")
	}
	if got := len(r.Rows()); got != 1 || r.Len() != 1 {
		t.Fatalf("pinned latest view rows = %d (Len %d), want 1", got, r.Len())
	}
	if got := len(r.RowsByIDs([]RowID{id, nid})); got != 1 {
		t.Fatalf("pinned latest view resolves %d of two ids, want 1", got)
	}
	// A fresh latest view reflects the insert.
	r2, _ := db.SnapshotLatest().Table("t")
	if _, ok := r2.Get(nid); !ok {
		t.Fatal("fresh latest view misses the new row")
	}
}

func TestSnapshotIndexLookupFiltersVisibility(t *testing.T) {
	db, tbl := snapDB(t)
	if _, err := tbl.CreateHashIndex("name"); err != nil {
		t.Fatal(err)
	}
	tbl.Insert(Row{Int(1), Text("x")})
	db.AdvanceEpoch(time.Now())
	snap := db.Snapshot()

	tbl.Insert(Row{Int(2), Text("x")})
	db.AdvanceEpoch(time.Now())

	r, _ := snap.Table("t")
	ix, ok := r.HashIndexOn("name")
	if !ok {
		t.Fatal("index missing from snapshot")
	}
	rows := r.RowsByIDs(ix.Lookup(Text("x")))
	if len(rows) != 1 || rows[0][0].AsInt() != 1 {
		t.Fatalf("snapshot lookup = %v, want only the old row", rows)
	}
	if lrows := latest(tbl).RowsByIDs(ix.Lookup(Text("x"))); len(lrows) != 2 {
		t.Fatalf("latest lookup = %v, want both rows", lrows)
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
		ra, _ := snap.Table("a")
		rb, _ := snap.Table("b")
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
				tr, _ := snap.Table("t")
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
