package record

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"flordb/internal/relation"
)

// TestSnapshotPreservesVersionEpochs: the v2 snapshot format carries per-
// version born/dead epochs, so a database loaded from a snapshot answers
// AS OF queries identically to the one that wrote it.
func TestSnapshotPreservesVersionEpochs(t *testing.T) {
	db := relation.NewDatabase()
	src, err := CreateTables(db)
	if err != nil {
		t.Fatal(err)
	}
	var ids []relation.RowID
	for i := 0; i < 6; i++ {
		id, err := src.Logs.Insert(relation.Row{
			relation.Text("p"), relation.Int(int64(i)), relation.Text("f.go"),
			relation.Int(int64(i)), relation.Text("acc"), relation.Text("0.5"), relation.Int(2),
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		db.AdvanceEpoch(time.Now())
	}
	// Epoch 7 deletes the first two rows.
	src.Logs.Delete(ids[0])
	src.Logs.Delete(ids[1])
	db.AdvanceEpoch(time.Now())

	meta := SnapshotMeta{Version: SnapshotVersion, Seq: 1, Epoch: db.Epoch()}
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, meta, src); err != nil {
		t.Fatal(err)
	}

	db2 := relation.NewDatabase()
	dst, err := CreateTables(db2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(buf.Bytes(), dst)
	if err != nil {
		t.Fatal(err)
	}
	db2.Restore(got.Epoch, got.MinEpoch, got.Epochs)

	counts := func(db *relation.Database, epoch int64) int {
		snap, err := db.SnapshotAt(epoch)
		if err != nil {
			t.Fatalf("SnapshotAt(%d): %v", epoch, err)
		}
		defer snap.Release()
		r, _ := snap.Reader("logs")
		return len(r.Rows())
	}
	for e := int64(0); e <= 7; e++ {
		if a, b := counts(db, e), counts(db2, e); a != b {
			t.Fatalf("epoch %d: source sees %d rows, snapshot-loaded sees %d", e, a, b)
		}
	}
	if got := counts(db2, 7); got != 4 {
		t.Fatalf("post-delete epoch sees %d rows, want 4", got)
	}
	if got := counts(db2, 6); got != 6 {
		t.Fatalf("pre-delete epoch sees %d rows, want 6", got)
	}
}

// TestSnapshotMinEpochFoldsRetiredVersions: versions tombstoned at or below
// meta.MinEpoch are dropped from the written snapshot entirely — the on-disk
// reclamation half of epoch-retention GC.
func TestSnapshotMinEpochFoldsRetiredVersions(t *testing.T) {
	mk := func(minEpoch int64) int {
		db := relation.NewDatabase()
		tables, err := CreateTables(db)
		if err != nil {
			t.Fatal(err)
		}
		// Churn: 200 rows, half deleted at epoch 2.
		var doomed []relation.RowID
		for i := 0; i < 200; i++ {
			id, err := tables.Logs.Insert(relation.Row{
				relation.Text("p"), relation.Int(int64(i)), relation.Text("f.go"),
				relation.Int(int64(i)), relation.Text("metric"),
				relation.Text(fmt.Sprintf("payload-%04d-padding-padding-padding", i)), relation.Int(2),
			})
			if err != nil {
				t.Fatal(err)
			}
			if i%2 == 0 {
				doomed = append(doomed, id)
			}
		}
		db.AdvanceEpoch(time.Now())
		for _, id := range doomed {
			tables.Logs.Delete(id)
		}
		db.AdvanceEpoch(time.Now())
		db.AdvanceEpoch(time.Now())

		var buf bytes.Buffer
		meta := SnapshotMeta{Version: SnapshotVersion, Seq: 1, Epoch: db.Epoch(), MinEpoch: minEpoch}
		if err := WriteSnapshot(&buf, meta, tables); err != nil {
			t.Fatal(err)
		}

		// The folded snapshot must still load and answer queries at retained
		// epochs correctly.
		db2 := relation.NewDatabase()
		dst, err := CreateTables(db2)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ReadSnapshot(buf.Bytes(), dst)
		if err != nil {
			t.Fatal(err)
		}
		db2.Restore(got.Epoch, got.MinEpoch, got.Epochs)
		snap, err := db2.SnapshotAt(3)
		if err != nil {
			t.Fatal(err)
		}
		defer snap.Release()
		r, _ := snap.Reader("logs")
		if got := len(r.Rows()); got != 100 {
			t.Fatalf("minEpoch %d: latest epoch sees %d rows, want 100", minEpoch, got)
		}
		return buf.Len()
	}

	full := mk(0)   // retains the tombstoned versions for time travel
	folded := mk(2) // floor 2: versions dead at or below 2 are gone
	if folded >= full {
		t.Fatalf("folded snapshot (%d bytes) not smaller than full history (%d bytes)", folded, full)
	}
	// 100 of 300 versions dropped; expect a substantial shrink, not noise.
	if folded > full*3/4 {
		t.Fatalf("folded snapshot %d bytes vs %d — expected >25%% reclamation", folded, full)
	}
}
