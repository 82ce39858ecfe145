// Package storage provides durability for FlorDB's metadata: an append-only
// write-ahead log of JSONL records with group commit and size-based
// segmentation, table snapshots that cover a WAL prefix, and the one log
// consumer (recover.go) through which recovery, compaction and replica apply
// rebuild state from the newest snapshot plus the WAL tail.
//
// The paper's flor.commit() is realized here as a WAL flush boundary: a
// commit record is appended and the file is synced, making everything up to
// the commit visible to future sessions (§2.1 "application-level transaction
// commit marker supporting visibility control").
//
// The file layout next to the active WAL file and the crash-ordering
// invariants every write here keeps are in DESIGN.md §7.
package storage

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"flordb/internal/metrics"
	"flordb/internal/record"
)

// DefaultSegmentBytes is the rotation threshold sessions use when the caller
// does not choose one: large enough that small projects keep a single file,
// small enough that compaction of a long history reclaims space in chunks.
const DefaultSegmentBytes = 64 << 20

// WAL is an append-only record log. Appends are buffered; Flush writes and
// syncs. The active file rotates into sealed, numbered segments at commit
// boundaries once it exceeds the segment size. Safe for concurrent use.
//
// Commits use group commit: AppendCommit appends the commit record under the
// short append lock and then waits for a flush+fsync covering it. One waiter
// at a time is elected leader and performs a single fsync; every commit
// appended before the leader flushed rides that fsync, so N concurrent
// committers cost ~1 fsync per batch instead of N.
type WAL struct {
	mu        sync.Mutex
	fs        FS
	f         File
	w         *bufio.Writer
	line      []byte   // encode buffer for one record, reused under mu
	lock      *os.File // held flock; single-writer exclusion across processes
	path      string
	pending   int   // records buffered since last flush
	sync      bool  // fsync on flush
	segBytes  int64 // rotation threshold; 0 disables rotation
	size      int64 // logical bytes appended to the active file (incl. buffered)
	committed int64 // logical size as of the last appended commit record
	nextSeq   int64 // sequence number the next sealed segment will take
	gen       int64 // active-file generation; rotation increments it
	// dirUnsynced records a failed post-rotation directory fsync so the next
	// commit retries it; until then the rename (and the new active file's
	// dir entry) may not survive a power loss.
	dirUnsynced bool

	// Group-commit state, guarded by gcMu (never held while doing IO and
	// never acquired while holding mu except in Truncate, whose one-way
	// mu->gcMu nesting cannot deadlock against the gcMu->nothing order used
	// everywhere else).
	gcMu   sync.Mutex
	gcCond *sync.Cond
	gcBusy bool  // a leader is flushing
	gcGen  int64 // generation the durable prefix below refers to
	gcOff  int64 // bytes of gcGen proven flushed+fsynced

	syncs   atomic.Int64 // fsyncs performed; group-commit observability
	commits atomic.Int64 // commit records appended; feeds the fsyncs/commit gauge
}

// Options configures WAL behavior.
type Options struct {
	// NoSync disables fsync on flush; used by benchmarks to isolate
	// serialization cost from disk cost.
	NoSync bool
	// SegmentBytes rotates the active file into a sealed segment once it
	// reaches this size at a commit boundary. 0 disables rotation (the WAL
	// stays a single file, as before segmentation existed).
	SegmentBytes int64
	// FS carries every write the WAL and its Compactor make (nil = the
	// operating system's); crash tests substitute one that fails at step N.
	FS FS
}

// OpenWAL opens (creating if needed) the WAL at path for appending. An
// exclusive advisory lock on <path>.lock enforces a single session per
// project across processes: every session both truncates (recovery drops
// the uncommitted tail) and appends, so a second concurrent opener would
// silently destroy the first one's in-flight records. A held lock makes
// OpenWAL fail fast instead.
func OpenWAL(path string, opts Options) (*WAL, error) {
	fsys := opts.FS
	if fsys == nil {
		fsys = OSFS{}
	}
	if err := fsys.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("storage: mkdir: %w", err)
	}
	lock, err := lockFile(path + ".lock")
	if err != nil {
		return nil, err
	}
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		lock.Close()
		return nil, fmt.Errorf("storage: open wal: %w", err)
	}
	st, err := os.Stat(path)
	if err != nil {
		f.Close()
		lock.Close()
		return nil, fmt.Errorf("storage: stat wal: %w", err)
	}
	// Sequence numbers never restart: a snapshot claims to cover segments
	// 1..Seq, so a new segment must number past both the surviving segments
	// and the newest snapshot (whose covered segments compaction deleted).
	segs, err := ListSegments(path)
	if err != nil {
		f.Close()
		lock.Close()
		return nil, err
	}
	snaps, err := ListSnapshots(path)
	if err != nil {
		f.Close()
		lock.Close()
		return nil, err
	}
	nextSeq := int64(1)
	if len(segs) > 0 {
		nextSeq = segs[len(segs)-1].Seq + 1
	}
	if len(snaps) > 0 && snaps[len(snaps)-1].Seq >= nextSeq {
		nextSeq = snaps[len(snaps)-1].Seq + 1
	}
	w := &WAL{
		fs: fsys, f: f, w: bufio.NewWriterSize(f, 1<<16), lock: lock, path: path,
		sync: !opts.NoSync, segBytes: opts.SegmentBytes,
		size: st.Size(), committed: st.Size(), nextSeq: nextSeq,
	}
	w.gcCond = sync.NewCond(&w.gcMu)
	return w, nil
}

// Path returns the active WAL file path.
func (w *WAL) Path() string { return w.path }

// Append buffers one record. It does not flush; call Flush (or append a
// commit record via AppendCommit) to make the record durable.
func (w *WAL) Append(rec any) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appendLocked(rec)
}

// appendLocked encodes rec into the WAL's line buffer, reused across
// appends, and buffers the line.
func (w *WAL) appendLocked(rec any) error {
	line, err := record.AppendRecord(w.line[:0], rec)
	if err != nil {
		return err
	}
	w.line = append(line, '\n')
	if _, err := w.w.Write(w.line); err != nil {
		return fmt.Errorf("storage: append: %w", err)
	}
	w.size += int64(len(w.line))
	w.pending++
	return nil
}

// Flush writes buffered records to the OS and, unless NoSync was set, fsyncs.
func (w *WAL) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.flushLocked()
}

func (w *WAL) flushLocked() error {
	if err := w.w.Flush(); err != nil {
		return fmt.Errorf("storage: flush: %w", err)
	}
	if w.sync {
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("storage: sync: %w", err)
		}
		w.syncs.Add(1)
	}
	w.pending = 0
	return nil
}

// SyncCount reports how many fsyncs the WAL has performed. With group
// commit, N concurrent committers should advance it by ~1 per batch, not N;
// C13 reports the ratio. A nil WAL (in-memory session, unpromoted replica)
// reports 0.
func (w *WAL) SyncCount() int64 {
	if w == nil {
		return 0
	}
	return w.syncs.Load()
}

// CommitCount reports how many commit records this WAL has appended since
// open. fsyncs/commit — SyncCount over CommitCount — is the group-commit
// efficiency figure /metrics reports: 1.0 means every commit
// paid its own fsync, lower means committers coalesced.
func (w *WAL) CommitCount() int64 {
	if w == nil {
		return 0
	}
	return w.commits.Load()
}

// RegisterMetrics publishes the WAL's counters as polled gauges. A session
// without a WAL registers the nil WAL, so the names are served (as zeros)
// everywhere; the WAL a promotion opens registers over them.
func (w *WAL) RegisterMetrics(reg *metrics.Registry) {
	reg.IntGauge("wal_syncs", w.SyncCount)
	reg.IntGauge("wal_commits", w.CommitCount)
	reg.Gauge("fsyncs_per_commit", func() float64 {
		commits := w.CommitCount()
		if commits == 0 {
			return 0
		}
		return float64(w.SyncCount()) / float64(commits)
	})
}

// AppendCommit appends a commit record and waits until it is durable — the
// commit point. Concurrent callers coalesce: the record is appended under
// the short append lock, then one caller is elected group-commit leader and
// performs a single flush+fsync covering every commit appended so far. If
// the active file has reached the segment size the leader rotates it
// afterward, so sealed segments always end with a commit record.
func (w *WAL) AppendCommit(rec *record.CommitRecord) error {
	w.mu.Lock()
	if err := w.appendLocked(rec); err != nil {
		w.mu.Unlock()
		return err
	}
	w.committed = w.size
	gen, target := w.gen, w.size
	w.mu.Unlock()
	w.commits.Add(1)
	return w.syncCommitted(gen, target)
}

// gcCovered reports whether a durable prefix (sGen, sOff) covers an append
// at (gen, off). A later generation covers every earlier one: rotation only
// happens after the old generation was fully flushed and fsynced.
func gcCovered(sGen, sOff, gen, off int64) bool {
	return sGen > gen || (sGen == gen && sOff >= off)
}

// syncCommitted blocks until a flush+fsync covering offset target of
// generation gen has completed. The first waiter not covered by the durable
// prefix becomes leader, performs the IO for everyone, publishes the new
// prefix, and retries rotation and a pending directory sync.
func (w *WAL) syncCommitted(gen, target int64) error {
	for {
		w.gcMu.Lock()
		for !gcCovered(w.gcGen, w.gcOff, gen, target) && w.gcBusy {
			w.gcCond.Wait()
		}
		if gcCovered(w.gcGen, w.gcOff, gen, target) {
			w.gcMu.Unlock()
			return nil
		}
		w.gcBusy = true
		w.gcMu.Unlock()

		// Leader round: flush + fsync everything appended so far. The
		// capture happens before rotation, so the published prefix describes
		// the generation the waiters appended into.
		w.mu.Lock()
		err := w.flushLocked()
		sGen, sOff := w.gen, w.size
		if err == nil {
			if w.dirUnsynced && w.sync {
				//florvet:ignore lockfsync w.mu IS the flush-serialization point of group commit; the leader holds it for the whole IO round by design
				if derr := w.fs.SyncDir(filepath.Dir(w.path)); derr != nil {
					err = derr
				} else {
					w.dirUnsynced = false
				}
			}
			if err == nil && w.segBytes > 0 && w.size >= w.segBytes {
				// Rotation is space management, not part of the commit
				// contract: the commit record is already durable, so a
				// rotation failure must not make AppendCommit report failure
				// (a caller would retry the committed transaction and
				// duplicate it). The next commit — or an explicit Seal,
				// which does surface errors — retries.
				_, _ = w.rotateLocked()
			}
		}
		w.mu.Unlock()

		w.gcMu.Lock()
		w.gcBusy = false
		if err == nil && gcCovered(sGen, sOff, w.gcGen, w.gcOff) {
			w.gcGen, w.gcOff = sGen, sOff
		}
		done := err == nil && gcCovered(w.gcGen, w.gcOff, gen, target)
		w.gcCond.Broadcast()
		w.gcMu.Unlock()
		if err != nil {
			return err
		}
		if done {
			return nil
		}
		// Our append postdates the state the leader flushed (possible only
		// when we inherited leadership mid-round); go around again.
	}
}

// Seal flushes and rotates the active file into a sealed segment regardless
// of the size threshold. It returns the sealed segment's sequence number, or
// 0 when there was nothing safe to seal: an empty active file, or an
// uncommitted tail (from a transaction in flight on another goroutine) that
// must stay in the active file so recovery can truncate it.
func (w *WAL) Seal() (int64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.flushLocked(); err != nil {
		return 0, err
	}
	return w.rotateLocked()
}

// rotateLocked seals the active file when it is non-empty and fully
// committed; otherwise it is a no-op returning sequence 0. The rename
// happens with the old file still open (the fd follows the inode), so a
// failure at any step leaves the WAL with a usable handle — rotation can
// fail, but it never poisons the log.
func (w *WAL) rotateLocked() (int64, error) {
	if w.size == 0 || w.committed != w.size {
		return 0, nil
	}
	seq := w.nextSeq
	segPath := SegmentPath(w.path, seq)
	if err := w.fs.Rename(w.path, segPath); err != nil {
		return 0, fmt.Errorf("storage: rotate: %w", err)
	}
	f, err := w.fs.OpenFile(w.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		// Undo so the sealed name only ever holds segments the writer has
		// abandoned; the still-open handle keeps appending to the original
		// file either way.
		if rerr := w.fs.Rename(segPath, w.path); rerr != nil {
			return 0, fmt.Errorf("storage: rotate reopen failed (%v) and undo rename failed: %w", err, rerr)
		}
		return 0, fmt.Errorf("storage: rotate: reopen: %w", err)
	}
	old := w.f
	w.f = f
	w.w.Reset(f)
	w.size, w.committed = 0, 0
	w.gen++
	w.nextSeq++
	// The sealed data was already flushed (and fsynced when sync is on)
	// before rotation was attempted; a close error on the old fd loses
	// nothing.
	_ = old.Close()
	if w.sync {
		// Make the rename durable. On failure the in-memory and on-disk
		// states are still individually consistent (recovery handles both
		// the pre- and post-rename layouts), so report without undoing and
		// let the next commit retry the directory sync.
		if err := w.fs.SyncDir(filepath.Dir(w.path)); err != nil {
			w.dirUnsynced = true
			return seq, err
		}
	}
	return seq, nil
}

// Truncate discards everything past off in the active file. Recovery uses it
// to drop a torn or uncommitted tail before any new record is appended, so a
// later commit cannot resurrect records that were not durable.
func (w *WAL) Truncate(off int64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.flushLocked(); err != nil {
		return err
	}
	if off > w.size {
		return fmt.Errorf("storage: truncate beyond end (%d > %d)", off, w.size)
	}
	if off < w.size {
		if err := w.f.Truncate(off); err != nil {
			return fmt.Errorf("storage: truncate: %w", err)
		}
		if w.sync {
			//florvet:ignore lockfsync recovery-time truncation: nothing serves during recovery, and the shortened size must not be observable before the fsync lands
			if err := w.f.Sync(); err != nil {
				return fmt.Errorf("storage: truncate sync: %w", err)
			}
		}
	}
	w.size, w.committed = off, off
	// The durable prefix must not claim coverage past the new end, or a
	// later commit below the old offset would skip its fsync.
	w.gcMu.Lock()
	if w.gcGen == w.gen && w.gcOff > off {
		w.gcOff = off
	}
	w.gcMu.Unlock()
	return nil
}

// Close flushes and closes the file, releasing the project lock.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	err := w.flushLocked()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	if w.lock != nil {
		if lerr := w.lock.Close(); err == nil {
			err = lerr
		}
		w.lock = nil
	}
	return err
}

// TailCommitted reports whether everything appended so far is covered by a
// commit record — i.e. the active file has no uncommitted tail.
func (w *WAL) TailCommitted() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.committed == w.size
}

// Segment is one sealed, immutable WAL segment.
type Segment struct {
	Seq  int64
	Path string
}

// SegmentPath returns the path of the sealed segment with the given sequence
// number for the WAL at walPath.
func SegmentPath(walPath string, seq int64) string {
	return fmt.Sprintf("%s.%09d", walPath, seq)
}

// SnapshotPath returns the path of the snapshot covering segments 1..seq for
// the WAL at walPath.
func SnapshotPath(walPath string, seq int64) string {
	return fmt.Sprintf("%s.snap.%09d", walPath, seq)
}

// ListSegments returns the sealed segments of the WAL at walPath in
// ascending sequence order. The active file is not included.
func ListSegments(walPath string) ([]Segment, error) {
	return listNumbered(walPath, "", func(seq int64, path string) Segment {
		return Segment{Seq: seq, Path: path}
	})
}

// SnapshotFile is one durable table snapshot next to the WAL.
type SnapshotFile struct {
	Seq  int64 // highest segment sequence the snapshot covers
	Path string
}

// ListSnapshots returns the snapshots next to the WAL at walPath in
// ascending coverage order (newest last).
func ListSnapshots(walPath string) ([]SnapshotFile, error) {
	return listNumbered(walPath, "snap.", func(seq int64, path string) SnapshotFile {
		return SnapshotFile{Seq: seq, Path: path}
	})
}

// listNumbered collects files named <walPath>.<kind><9 digits>, sorted by the
// numeric suffix.
func listNumbered[T any](walPath, kind string, mk func(int64, string) T) ([]T, error) {
	dir, base := filepath.Split(walPath)
	if dir == "" {
		dir = "."
	}
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("storage: list wal files: %w", err)
	}
	prefix := base + "." + kind
	type numbered struct {
		seq int64
		val T
	}
	var out []numbered
	for _, e := range entries {
		name := e.Name()
		suffix, ok := strings.CutPrefix(name, prefix)
		if !ok || len(suffix) != 9 {
			continue
		}
		seq, err := strconv.ParseInt(suffix, 10, 64)
		if err != nil || seq <= 0 {
			continue
		}
		out = append(out, numbered{seq: seq, val: mk(seq, filepath.Join(dir, name))})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	vals := make([]T, len(out))
	for i, n := range out {
		vals[i] = n.val
	}
	return vals, nil
}
