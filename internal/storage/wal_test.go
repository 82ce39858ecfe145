package storage

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"flordb/internal/record"
	"flordb/internal/relation"
)

func walPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "flor.wal")
}

func logRec(ts int64, name, val string) *record.LogRecord {
	return &record.LogRecord{Kind: record.KindLog, ProjID: "p", Tstamp: ts, Filename: "f", ValueName: name, Value: val, ValueType: record.VTText}
}

func commitRec(ts int64) *record.CommitRecord {
	return &record.CommitRecord{Kind: record.KindCommit, ProjID: "p", Tstamp: ts, VID: "v"}
}

func TestWALAppendFlushReplay(t *testing.T) {
	path := walPath(t)
	w, err := OpenWAL(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := w.Append(logRec(1, "x", "v")); err != nil {
			t.Fatal(err)
		}
	}
	if w.Pending() != 5 {
		t.Fatalf("pending = %d", w.Pending())
	}
	if err := w.AppendCommit(commitRec(2)); err != nil {
		t.Fatal(err)
	}
	if w.Pending() != 0 {
		t.Fatal("commit should clear pending")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	var n int
	if err := Replay(path, false, func(rec any) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 6 {
		t.Fatalf("replayed %d records", n)
	}
}

// TestWALAppendAllocatesNothing: a buffered append encodes into the WAL's
// reused line buffer, so a record costs no allocation.
func TestWALAppendAllocatesNothing(t *testing.T) {
	w, err := OpenWAL(walPath(t), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	rec := &record.LogRecord{Kind: record.KindLog, ProjID: "proj", Tstamp: 7, Filename: "train.flow",
		CtxID: 3, ValueName: "loss", Value: "0.25", ValueType: record.VTFloat, Wall: time.Now().UTC()}
	// 100 lines of ~200 bytes stay inside the 64 KiB write buffer: no flush.
	if n := testing.AllocsPerRun(100, func() {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("WAL.Append: %v allocs per record, want 0", n)
	}
}

func TestReplayStrictCommitsHidesUncommittedTail(t *testing.T) {
	path := walPath(t)
	w, _ := OpenWAL(path, Options{})
	w.Append(logRec(1, "a", "1"))
	w.AppendCommit(commitRec(2))
	w.Append(logRec(3, "b", "2")) // uncommitted
	w.Close()                     // close flushes but does not commit

	var committed, all int
	if err := Replay(path, true, func(rec any) error { committed++; return nil }); err != nil {
		t.Fatal(err)
	}
	if err := Replay(path, false, func(rec any) error { all++; return nil }); err != nil {
		t.Fatal(err)
	}
	if committed != 2 || all != 3 {
		t.Fatalf("committed=%d all=%d", committed, all)
	}
}

func TestReplayToleratesTornTail(t *testing.T) {
	path := walPath(t)
	w, _ := OpenWAL(path, Options{})
	w.Append(logRec(1, "a", "1"))
	w.Close()
	// Simulate a crash mid-append: a torn partial line at the end.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"kind":"log","proj`)
	f.Close()

	var n int
	if err := Replay(path, false, func(rec any) error { n++; return nil }); err != nil {
		t.Fatalf("torn tail should be tolerated: %v", err)
	}
	if n != 1 {
		t.Fatalf("replayed %d", n)
	}
}

func TestReplayRejectsMidLogCorruption(t *testing.T) {
	path := walPath(t)
	w, _ := OpenWAL(path, Options{})
	w.Append(logRec(1, "a", "1"))
	w.Append(logRec(2, "b", "2"))
	w.Close()
	data, _ := os.ReadFile(path)
	// Corrupt the first line.
	data[2] = 0xFF
	os.WriteFile(path, data, 0o644)
	if err := Replay(path, false, func(rec any) error { return nil }); err == nil {
		t.Fatal("mid-log corruption must error")
	}
}

func TestReplayMissingFileIsEmpty(t *testing.T) {
	if err := Replay(filepath.Join(t.TempDir(), "nope.wal"), false, func(any) error {
		t.Fatal("no records expected")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverIntoTables(t *testing.T) {
	path := walPath(t)
	w, _ := OpenWAL(path, Options{})
	w.Append(logRec(1, "acc", "0.8"))
	w.Append(&record.LoopRecord{Kind: record.KindLoop, ProjID: "p", Tstamp: 1, Filename: "f", CtxID: 1, LoopName: "epoch"})
	w.Append(&record.ArgRecord{Kind: record.KindArg, ProjID: "p", Tstamp: 1, Filename: "f", Name: "lr", Value: "0.01"})
	w.AppendCommit(commitRec(5))
	w.Close()

	db := relation.NewDatabase()
	tables, err := record.CreateTables(db)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RecoverTables(path, tables, nil, "", true, RecoverHooks{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 4 || res.MaxTstamp != 5 {
		t.Fatalf("applied=%d maxTs=%d", res.Applied, res.MaxTstamp)
	}
	if tables.Logs.Len() != 1 || tables.Loops.Len() != 1 || tables.Args.Len() != 1 {
		t.Fatal("tables not populated")
	}
	// The commit record carried a version id, so recovery materialized its
	// ts2vid row (full session semantics, unlike plain Tables.Apply).
	if tables.Ts2vid.Len() != 1 {
		t.Fatalf("ts2vid rows = %d, want 1", tables.Ts2vid.Len())
	}
}

func TestWALConcurrentAppend(t *testing.T) {
	path := walPath(t)
	w, _ := OpenWAL(path, Options{NoSync: true})
	var wg sync.WaitGroup
	const workers, per = 8, 50
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				if err := w.Append(logRec(1, "x", "y")); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	w.Close()
	var n int
	if err := Replay(path, false, func(any) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != workers*per {
		t.Fatalf("records = %d want %d", n, workers*per)
	}
}

// putLegacyBlob writes data where releases before checkpoints rode in the
// log stored a checkpoint's bytes, and returns its key.
func putLegacyBlob(t testing.TB, root string, data []byte) string {
	t.Helper()
	key := HashKey(data)
	path := filepath.Join(root, key[:2], key[2:])
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return key
}

func TestBlobStoreIntegrityCheck(t *testing.T) {
	dir := t.TempDir()
	bs, _ := NewBlobStore(dir)
	key := putLegacyBlob(t, dir, []byte("payload"))
	if data, err := bs.Get(key); err != nil || string(data) != "payload" {
		t.Fatalf("get: %q %v", data, err)
	}
	if _, err := bs.Get("deadbeef"); err == nil {
		t.Fatal("missing blob must error")
	}
	// Corrupt the stored file.
	path := filepath.Join(dir, key[:2], key[2:])
	os.WriteFile(path, []byte("tampered"), 0o644)
	if _, err := bs.Get(key); err == nil {
		t.Fatal("tampered blob must fail integrity check")
	}
}

func TestHashKeyDeterministic(t *testing.T) {
	if HashKey([]byte("a")) != HashKey([]byte("a")) {
		t.Fatal("hash must be deterministic")
	}
	if HashKey([]byte("a")) == HashKey([]byte("b")) {
		t.Fatal("different payloads must differ")
	}
}

func TestGroupCommitConcurrentCommitters(t *testing.T) {
	// N goroutines commit concurrently; every record must be durable and
	// replayable, and sealed segments (rotation races with the group) must
	// still end at commit boundaries.
	path := walPath(t)
	w, err := OpenWAL(path, Options{SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	const writers, commitsPer = 8, 25
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < commitsPer; i++ {
				ts := int64(g*commitsPer + i)
				if err := w.Append(logRec(ts, "x", "v")); err != nil {
					t.Error(err)
					return
				}
				if err := w.AppendCommit(commitRec(ts)); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if !w.TailCommitted() {
		t.Fatal("tail must be committed after all commits return")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery publishes one epoch per commit record, so the epoch counts
	// the commits it replayed.
	st := newState(t)
	if _, err := st.Recover(path, true); err != nil {
		t.Fatal(err)
	}
	logs, commits := st.Tables.Logs.Len(), st.DB.Epoch()
	if logs != writers*commitsPer || commits != writers*commitsPer {
		t.Fatalf("replayed %d logs / %d commits, want %d each", logs, commits, writers*commitsPer)
	}
	// Every sealed segment ends with a commit record (rotation only at
	// commit boundaries, even under concurrent group commit).
	segs, err := ListSegments(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) == 0 {
		t.Fatal("expected rotation under a 4KiB segment size")
	}
	for _, sg := range segs {
		var last any
		if err := Replay(sg.Path, false, func(rec any) error { last = rec; return nil }); err != nil {
			t.Fatalf("segment %d: %v", sg.Seq, err)
		}
		if _, ok := last.(*record.CommitRecord); !ok {
			t.Fatalf("segment %d does not end with a commit record: %T", sg.Seq, last)
		}
	}
}

func TestGroupCommitSequentialStillDurable(t *testing.T) {
	// The single-committer fast path: each AppendCommit returns only after
	// its own record is flushed.
	path := walPath(t)
	w, err := OpenWAL(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := w.AppendCommit(commitRec(int64(i))); err != nil {
			t.Fatal(err)
		}
		if w.Pending() != 0 {
			t.Fatalf("commit %d left %d pending records", i, w.Pending())
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := Replay(path, true, func(any) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("replayed %d records, want 10", n)
	}
}
