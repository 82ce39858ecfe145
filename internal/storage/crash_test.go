// Crash matrices for the storage layer's own writes: each runs an operation
// once on a recording FS, then once per kill point of that clean run
// (storagetest.Points), and checks what the killed run left on disk.
package storage_test

import (
	"os"
	"path/filepath"
	"testing"

	"flordb/internal/record"
	"flordb/internal/relation"
	"flordb/internal/storage"
	"flordb/internal/storage/storagetest"
)

// fill appends n committed transactions of per log records each.
func fill(t *testing.T, w *storage.WAL, n, per int) {
	t.Helper()
	for ts := int64(1); ts <= int64(n); ts++ {
		for j := 0; j < per; j++ {
			rec := &record.LogRecord{Kind: record.KindLog, ProjID: "p", Tstamp: ts, Filename: "f", ValueName: "x", Value: "v", ValueType: record.VTText}
			if err := w.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.AppendCommit(&record.CommitRecord{Kind: record.KindCommit, ProjID: "p", Tstamp: ts, VID: "v"}); err != nil {
			t.Fatal(err)
		}
	}
}

// newState returns an empty storage.State over a fresh database.
func newState(t *testing.T) storage.State {
	t.Helper()
	db := relation.NewDatabase()
	tables, err := record.CreateTables(db)
	if err != nil {
		t.Fatal(err)
	}
	return storage.State{DB: db, Tables: tables}
}

// TestRecoverFallsBackFromCorruptSnapshot kills a compaction of three sealed
// segments at every step it performs, then corrupts the snapshot it left, if
// any. While every segment survives, recovery must fall back to a full
// replay of all six rows; once compaction has deleted one, it must refuse —
// never answer with fewer rows. A compaction over the same wreckage follows
// the same rule: it folds all six rows into a loadable snapshot or refuses,
// and no snapshot it leaves loads with fewer.
func TestRecoverFallsBackFromCorruptSnapshot(t *testing.T) {
	compact := func(fsys storage.FS) string {
		path := filepath.Join(t.TempDir(), "flor.wal")
		w, err := storage.OpenWAL(path, storage.Options{SegmentBytes: 1})
		if err != nil {
			t.Fatal(err)
		}
		fill(t, w, 3, 2)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		w, err = storage.OpenWAL(path, storage.Options{SegmentBytes: 1, FS: fsys})
		if err == nil {
			_, _ = (&storage.Compactor{WAL: w}).Compact()
			w.Close()
		}
		return path
	}
	rec := storagetest.Recorder()
	compact(rec)
	points := storagetest.Points(rec.Trace())
	t.Logf("%d kill points", len(points))

	fellBack, folded, refused := 0, 0, 0
	for _, p := range points {
		path := compact(storagetest.Crash(p))
		snaps, err := storage.ListSnapshots(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(snaps) > 0 {
			snap := snaps[len(snaps)-1].Path
			data, err := os.ReadFile(snap)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)/2] ^= 0xFF
			if err := os.WriteFile(snap, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		segs, err := storage.ListSegments(path)
		if err != nil {
			t.Fatal(err)
		}
		tables, err := record.CreateTables(relation.NewDatabase())
		if err != nil {
			t.Fatal(err)
		}
		res, err := storage.RecoverTables(path, tables, nil, "", true, storage.RecoverHooks{})
		logs := tables.Logs.Len()
		switch {
		case len(segs) < 3 && err == nil:
			t.Fatalf("%v: recovered %d rows over a corrupt snapshot and %d of 3 segments; want a refusal", p, logs, len(segs))
		case len(segs) == 3 && (err != nil || res.SnapshotSeq != 0 || logs != 6):
			t.Fatalf("%v: recovery = %d rows from snapshot %d, err %v; want all 6 by full replay", p, logs, res.SnapshotSeq, err)
		case len(segs) == 3 && len(snaps) > 0:
			fellBack++
		}

		// Compaction arm, over the same wreckage.
		w, err := storage.OpenWAL(path, storage.Options{SegmentBytes: 1})
		if err != nil {
			t.Fatal(err)
		}
		_, cerr := (&storage.Compactor{WAL: w}).Compact()
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		switch {
		case len(segs) == 3 && cerr != nil:
			t.Fatalf("%v: compaction over intact segments: %v", p, cerr)
		case len(segs) > 0 && len(segs) < 3 && cerr == nil:
			t.Fatalf("%v: compaction folded %d of 3 segments under a corrupt snapshot; want a refusal", p, len(segs))
		case cerr != nil:
			refused++
		}
		after, err := storage.ListSnapshots(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, sf := range after {
			data, err := os.ReadFile(sf.Path)
			if err != nil {
				t.Fatal(err)
			}
			tables, err := record.CreateTables(relation.NewDatabase())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := record.ReadSnapshot(data, tables); err == nil && tables.Logs.Len() != 6 {
				t.Fatalf("%v: compaction left snapshot %d holding %d rows; want 6", p, sf.Seq, tables.Logs.Len())
			}
		}
		if len(segs) == 3 {
			st := newState(t)
			res, err := st.Recover(path, true)
			if err != nil || res.SnapshotSeq != 3 || st.Tables.Logs.Len() != 6 {
				t.Fatalf("%v: after compaction, recovery = %d rows from snapshot %d, err %v; want 6 from snapshot 3", p, st.Tables.Logs.Len(), res.SnapshotSeq, err)
			}
			folded++
		}
	}
	if fellBack == 0 {
		t.Fatal("no kill point left an installed snapshot beside intact segments")
	}
	if folded == 0 || refused == 0 {
		t.Fatalf("compaction folded after %d kills and refused after %d: the matrix missed a case", folded, refused)
	}
}
