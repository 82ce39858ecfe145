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
// reader refuses — a tombstone, a max dead, a decreasing born, each inside a
// complete page — is skipped like any unreadable one. Recovery loads the
// older snapshot and replays the segments after it. A compaction falls back
// the same way: it copies the older snapshot's complete page and none of the
// refused file's, and installs a snapshot that loads every row.
func TestRecoveryFallsBackFromRefusedSnapshot(t *testing.T) {
	const logs = relation.ZonePageRows + 4 // the older snapshot holds one complete logs page
	for _, defect := range record.SnapshotDefects {
		path := filepath.Join(t.TempDir(), "flor.wal")
		w, err := storage.OpenWAL(path, storage.Options{SegmentBytes: 1})
		if err != nil {
			t.Fatal(err)
		}
		commit := func(ts int64, n int) {
			t.Helper()
			for i := 0; i < n; i++ {
				if err := w.Append(&record.LogRecord{Kind: record.KindLog, ProjID: "p", Tstamp: ts, Filename: "f",
					ValueName: "x", Value: "v", ValueType: record.VTText}); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.AppendCommit(&record.CommitRecord{Kind: record.KindCommit, ProjID: "p", Tstamp: ts}); err != nil {
				t.Fatal(err)
			}
		}
		c := &storage.Compactor{WAL: w, RetainSegments: 100} // keep every segment
		commit(1, logs-3)
		commit(2, 1)
		older, err := c.Compact()
		if err != nil {
			t.Fatal(err)
		}
		commit(3, 1)
		commit(4, 1)
		newest, err := c.Compact()
		if err != nil {
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
		if err != nil || res.SnapshotSeq != older.SnapshotSeq || tables.Logs.Len() != logs || tables.Args.Len() != 0 {
			t.Fatalf("%s: recovery = %d logs, %d args from snapshot %d, err %v; want %d logs, 0 args from snapshot %d",
				defect, tables.Logs.Len(), tables.Args.Len(), res.SnapshotSeq, err, logs, older.SnapshotSeq)
		}

		// The compaction arm: the base is the older snapshot, so the one
		// page copied is its logs page, and the file replacing the refused
		// one loads with every row.
		st, err := c.Compact()
		if err != nil || st.SnapshotSeq != newest.SnapshotSeq || st.PagesCopied != 1 || st.Rows != logs {
			t.Fatalf("%s: compaction over the refused snapshot = %+v, err %v; want snapshot %d, 1 page copied, %d rows",
				defect, st, err, newest.SnapshotSeq, logs)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(storage.SnapshotPath(path, st.SnapshotSeq))
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := record.CreateTables(relation.NewDatabase())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := record.ReadSnapshot(data, loaded); err != nil || loaded.Logs.Len() != logs || loaded.Args.Len() != 0 {
			t.Fatalf("%s: the compacted snapshot loads %d logs, %d args, err %v; want %d logs, 0 args",
				defect, loaded.Logs.Len(), loaded.Args.Len(), err, logs)
		}
	}
}
