package record_test

import (
	"os"
	"path/filepath"
	"testing"

	"flordb/internal/record"
	"flordb/internal/relation"
	"flordb/internal/storage"
)

// TestRecoveryFallsBackFromRefusedSnapshot: a CRC-valid newest snapshot the
// reader refuses — a tombstone, a max dead, a decreasing born — is skipped
// like any unreadable one: recovery loads the older snapshot and replays the
// segments after it.
func TestRecoveryFallsBackFromRefusedSnapshot(t *testing.T) {
	for _, defect := range record.SnapshotDefects {
		path := filepath.Join(t.TempDir(), "flor.wal")
		w, err := storage.OpenWAL(path, storage.Options{SegmentBytes: 1})
		if err != nil {
			t.Fatal(err)
		}
		commit := func(ts int64) {
			t.Helper()
			if err := w.Append(&record.LogRecord{Kind: record.KindLog, ProjID: "p", Tstamp: ts, Filename: "f",
				ValueName: "x", Value: "v", ValueType: record.VTText}); err != nil {
				t.Fatal(err)
			}
			if err := w.AppendCommit(&record.CommitRecord{Kind: record.KindCommit, ProjID: "p", Tstamp: ts}); err != nil {
				t.Fatal(err)
			}
		}
		c := &storage.Compactor{WAL: w, RetainSegments: 100} // keep every segment
		commit(1)
		commit(2)
		older, err := c.Compact()
		if err != nil {
			t.Fatal(err)
		}
		commit(3)
		commit(4)
		newest, err := c.Compact()
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		meta := record.SnapshotMeta{Version: record.SnapshotVersion, Seq: newest.SnapshotSeq, MaxTstamp: 4, Epoch: 4}
		if err := os.WriteFile(storage.SnapshotPath(path, newest.SnapshotSeq), record.TamperedSnapshot(t, meta, defect), 0o644); err != nil {
			t.Fatal(err)
		}
		tables, err := record.CreateTables(relation.NewDatabase())
		if err != nil {
			t.Fatal(err)
		}
		res, err := storage.RecoverTables(path, tables, nil, "", true, storage.RecoverHooks{})
		if err != nil || res.SnapshotSeq != older.SnapshotSeq || tables.Logs.Len() != 4 || tables.Args.Len() != 0 {
			t.Fatalf("%s: recovery = %d logs, %d args from snapshot %d, err %v; want 4 logs, 0 args from snapshot %d",
				defect, tables.Logs.Len(), tables.Args.Len(), res.SnapshotSeq, err, older.SnapshotSeq)
		}
	}
}
