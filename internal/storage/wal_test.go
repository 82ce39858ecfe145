package storage

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

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

func TestBlobStorePutGet(t *testing.T) {
	bs, err := NewBlobStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key, err := bs.Put([]byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	key2, err := bs.Put([]byte("hello"))
	if err != nil || key2 != key {
		t.Fatalf("idempotent put: %v %v", key2, err)
	}
	data, err := bs.Get(key)
	if err != nil || string(data) != "hello" {
		t.Fatalf("get: %q %v", data, err)
	}
	if !bs.Has(key) || bs.Has("deadbeef") {
		t.Fatal("Has semantics wrong")
	}
	if _, err := bs.Get("deadbeef"); err == nil {
		t.Fatal("missing blob must error")
	}
	bs.SetNoSync(true) // the same steps without the fsyncs
	key, err = bs.Put([]byte("unsynced"))
	if err != nil {
		t.Fatal(err)
	}
	if data, err := bs.Get(key); err != nil || string(data) != "unsynced" {
		t.Fatalf("get after NoSync put: %q %v", data, err)
	}
}

// TestBlobStorePutLeavesOnlyTheBlob: a Put publishes by rename — no staging
// file survives it, however many Puts of the same bytes race, and every one
// of them returns the key — and a Put that cannot reach the disk says so
// instead of returning a key nothing backs.
func TestBlobStorePutLeavesOnlyTheBlob(t *testing.T) {
	dir := t.TempDir()
	bs, err := NewBlobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	const putters = 16
	keys := make([]string, putters)
	errs := make([]error, putters)
	var wg sync.WaitGroup
	for g := 0; g < putters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			keys[g], errs[g] = bs.Put([]byte("checkpoint"))
		}(g)
	}
	wg.Wait()
	key := HashKey([]byte("checkpoint"))
	for g := range keys {
		if errs[g] != nil || keys[g] != key {
			t.Fatalf("Put %d of identical bytes: key %q, err %v; want %q", g, keys[g], errs[g], key)
		}
	}
	if data, err := bs.Get(key); err != nil || string(data) != "checkpoint" {
		t.Fatalf("Get after concurrent Puts: %q %v", data, err)
	}
	entries, err := os.ReadDir(filepath.Join(dir, key[:2]))
	if err != nil || len(entries) != 1 || entries[0].Name() != key[2:] {
		t.Fatalf("fan-out directory after Put: %v %v", entries, err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, nil, 0o644); err != nil { // a file where the store was
		t.Fatal(err)
	}
	if key, err := bs.Put([]byte("no store left")); err == nil {
		t.Fatalf("Put with no store directory returned key %s and no error", key)
	}
}

func TestBlobStoreIntegrityCheck(t *testing.T) {
	dir := t.TempDir()
	bs, _ := NewBlobStore(dir)
	key, _ := bs.Put([]byte("payload"))
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

	var logs, commits int
	if _, err := ReplaySegments(path, 0, true, func(rec any) error {
		switch rec.(type) {
		case *record.LogRecord:
			logs++
		case *record.CommitRecord:
			commits++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
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
