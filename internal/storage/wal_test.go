package storage

import (
	"errors"
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

// gatedFS is the operating system's FS with a hand on its files' fsyncs: the
// next Sync after hold blocks until the returned release runs, and the next
// Sync after failNext fails without syncing.
type gatedFS struct {
	OSFS
	mu      sync.Mutex
	gate    chan struct{} // closed by release
	entered chan struct{} // closed when the held Sync starts
	fail    bool
}

type gatedFile struct {
	File
	fs *gatedFS
}

func (g *gatedFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := g.OSFS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return gatedFile{File: f, fs: g}, nil
}

// hold arms the gate for the next Sync. entered is closed once that Sync is
// blocked; release lets it finish.
func (g *gatedFS) hold() (entered <-chan struct{}, release func()) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.gate, g.entered = make(chan struct{}), make(chan struct{})
	gate := g.gate
	var once sync.Once
	return g.entered, func() { once.Do(func() { close(gate) }) }
}

func (g *gatedFS) failNext() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.fail = true
}

func (f gatedFile) Sync() error {
	f.fs.mu.Lock()
	gate, entered, fail := f.fs.gate, f.fs.entered, f.fs.fail
	f.fs.gate, f.fs.entered, f.fs.fail = nil, nil, false
	f.fs.mu.Unlock()
	if gate != nil {
		close(entered)
		<-gate
	}
	if fail {
		return errors.New("gatedFS: sync failed")
	}
	return f.File.Sync()
}

// waitFor polls cond until it holds or five seconds pass.
func waitFor(cond func() bool) bool {
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if cond() {
			return true
		}
	}
	return cond()
}

// heldCommit opens a WAL on a gatedFS and starts a commit whose fsync is
// held; it returns once that fsync has started. The commit's error arrives on
// done after release.
func heldCommit(t *testing.T) (w *WAL, fs *gatedFS, release func(), done <-chan error) {
	t.Helper()
	fs = &gatedFS{}
	w, err := OpenWAL(walPath(t), Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	entered, release := fs.hold()
	t.Cleanup(release)
	errc := make(chan error, 1)
	go func() { errc <- w.AppendCommit(commitRec(0)) }()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the commit never reached its fsync")
	}
	return w, fs, release, errc
}

func TestConcurrentAppendBesideCommitFsync(t *testing.T) {
	// A commit's disk wait stalls no logger: Append takes only the append
	// lock, which a durability round never holds across its fsync.
	w, _, release, done := heldCommit(t)
	appended := make(chan error, 1)
	go func() { appended <- w.Append(logRec(1, "x", "v")) }()
	select {
	case err := <-appended:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		release()
		t.Fatal("Append blocked behind a commit's fsync")
	}
	release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentCommitsShareOneFsync(t *testing.T) {
	// Every commit appended while a round is on disk rides the next round:
	// eight of them cost one fsync between them.
	w, _, release, done := heldCommit(t)
	const n = 8
	errs := make(chan error, n)
	for i := 1; i <= n; i++ {
		go func() { errs <- w.AppendCommit(commitRec(int64(i))) }()
	}
	if !waitFor(func() bool { return w.CommitCount() == 1+n }) {
		release()
		t.Fatalf("only %d of %d commits appended while an fsync was in flight", w.CommitCount(), 1+n)
	}
	release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got := w.SyncCount(); got != 2 {
		t.Fatalf("%d fsyncs for a held commit and %d commits appended during it, want 2", got, n)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentCommitBehindSealSharesItsFsync(t *testing.T) {
	// A commit and a compaction's Seal queue behind a held fsync. Whichever
	// takes the sync lock first, one fsync covers both: Seal publishes the
	// prefix it fsynced, so the commit queued behind it returns without its
	// own, and a Seal behind the commit's round finds nothing left to fsync.
	w, _, release, done := heldCommit(t)
	type sealed struct {
		seq int64
		err error
	}
	seal := make(chan sealed, 1)
	go func() {
		seq, err := w.Seal()
		seal <- sealed{seq, err}
	}()
	// Give the Seal a head start so it usually queues first; the count
	// below holds in either order.
	time.Sleep(20 * time.Millisecond)
	committed := make(chan error, 1)
	go func() { committed <- w.AppendCommit(commitRec(1)) }()
	if !waitFor(func() bool { return w.CommitCount() == 2 }) {
		release()
		t.Fatal("a commit could not append while an fsync was in flight")
	}
	release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := <-committed; err != nil {
		t.Fatal(err)
	}
	if s := <-seal; s.err != nil || s.seq != 1 {
		t.Fatalf("Seal = %d, %v; want segment 1", s.seq, s.err)
	}
	if got := w.SyncCount(); got != 2 {
		t.Fatalf("%d fsyncs for a held commit, a commit and a Seal behind it, want 2", got)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestGroupCommitFailedFsyncKeepsPrefix(t *testing.T) {
	// A round whose fsync fails reports it to its committer and publishes
	// nothing, so the next commit pays for its own fsync.
	fs := &gatedFS{}
	w, err := OpenWAL(walPath(t), Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendCommit(commitRec(0)); err != nil {
		t.Fatal(err)
	}
	fs.failNext()
	if err := w.AppendCommit(commitRec(1)); err == nil {
		t.Fatal("a commit whose fsync failed reported success")
	}
	if got := w.SyncCount(); got != 1 {
		t.Fatalf("SyncCount = %d after a failed fsync, want 1", got)
	}
	if err := w.AppendCommit(commitRec(2)); err != nil {
		t.Fatal(err)
	}
	if got := w.SyncCount(); got != 2 {
		t.Fatalf("SyncCount = %d, want 2: the commit after a failed round fsyncs itself", got)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}
