package record

import (
	"bytes"
	"testing"
	"time"

	"flordb/internal/relation"
)

// TestSnapshotPreservesVersionEpochs: the snapshot carries every version's
// born epoch, so a database loaded from it answers AS OF queries identically
// to the one that wrote it, at every committed epoch.
func TestSnapshotPreservesVersionEpochs(t *testing.T) {
	db := relation.NewDatabase()
	src, err := CreateTables(db)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := src.Logs.Insert(relation.Row{
			relation.Text("p"), relation.Int(int64(i)), relation.Text("f.go"),
			relation.Int(int64(i)), relation.Text("acc"), relation.Text("0.5"), relation.Int(2),
		}); err != nil {
			t.Fatal(err)
		}
		if i%2 == 1 {
			db.AdvanceEpoch(time.Now()) // epochs 1..3 commit two rows each
		}
	}
	meta := SnapshotMeta{Version: SnapshotVersion, Seq: 1, Epoch: db.Epoch(), Epochs: db.EpochStamps()}
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
	db2.Restore(got.Epoch, got.Epochs)
	if dst.Logs.Len() != 6 {
		t.Fatalf("loaded %d versions, want all 6", dst.Logs.Len())
	}

	counts := func(db *relation.Database, epoch int64) int {
		snap, err := db.SnapshotAt(epoch)
		if err != nil {
			t.Fatalf("SnapshotAt(%d): %v", epoch, err)
		}
		defer snap.Release()
		r, _ := snap.Table("logs")
		return len(r.Rows())
	}
	for e := int64(0); e <= 3; e++ {
		if a, b := counts(db, e), counts(db2, e); a != b || a != int(2*e) {
			t.Fatalf("epoch %d: source sees %d rows, snapshot-loaded sees %d, want %d", e, a, b, 2*e)
		}
	}
}
