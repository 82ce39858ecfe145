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
// Two locks split the work. mu, the append lock, guards the buffer and the
// file's bookkeeping and is held only to append or to move the buffer into
// the file, never across an fsync. syncMu, the sync lock, serializes
// durability rounds: flush under mu, fsync outside it, publish the durable
// prefix. AppendCommit returns without a round when the prefix already
// covers its record, so every commit appended while a round is on disk
// rides the next round's fsync. Lock order: syncMu, then mu.
type WAL struct {
	// syncMu is held by every durability round and by everything that may
	// close or swap the file (Flush, Seal, Truncate, Close), so the file a
	// round fsyncs outside mu stays open.
	syncMu sync.Mutex
	durGen int64 // generation the durable prefix refers to; guarded by syncMu
	durOff int64 // bytes of durGen flushed and fsynced; guarded by syncMu
	// dirUnsynced marks a rotation whose directory fsync has not succeeded
	// yet; until it does, the rename (and the new active file's dir entry)
	// may not survive a power loss. Guarded by syncMu.
	dirUnsynced bool

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
	return &WAL{
		fs: fsys, f: f, w: bufio.NewWriterSize(f, 1<<16), lock: lock, path: path,
		sync: !opts.NoSync, segBytes: opts.SegmentBytes,
		size: st.Size(), committed: st.Size(), nextSeq: nextSeq,
	}, nil
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

// Flush writes buffered records to the OS and, unless NoSync was set, fsyncs
// them — a durability round, whose prefix the next AppendCommit finds.
func (w *WAL) Flush() error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	return w.syncLocked()
}

// syncLocked is one durability round: it moves the buffer into the file
// under mu, then fsyncs the file outside mu. The caller holds syncMu.
func (w *WAL) syncLocked() error {
	w.mu.Lock()
	f, gen, off, err := w.flushBuffer()
	w.mu.Unlock()
	return w.fsyncLocked(f, gen, off, err)
}

// flushLocked is syncLocked for a caller that holds mu as well.
func (w *WAL) flushLocked() error { return w.fsyncLocked(w.flushBuffer()) }

// flushBuffer writes the buffered records to the active file and returns
// that file with the generation and offset the records end at. The caller
// holds mu.
func (w *WAL) flushBuffer() (File, int64, int64, error) {
	if err := w.w.Flush(); err != nil {
		return nil, 0, 0, fmt.Errorf("storage: flush: %w", err)
	}
	w.pending = 0
	return w.f, w.gen, w.size, nil
}

// fsyncLocked finishes a round whose flush returned err and left f holding
// generation gen through offset off. Unless NoSync was set, it fsyncs f,
// retries a rotation's failed directory fsync, and only then publishes the
// prefix. The caller holds syncMu.
func (w *WAL) fsyncLocked(f File, gen, off int64, err error) error {
	if err != nil || !w.sync {
		return err
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("storage: sync: %w", err)
	}
	w.syncs.Add(1)
	if w.dirUnsynced {
		if err := w.fs.SyncDir(filepath.Dir(w.path)); err != nil {
			return err
		}
		w.dirUnsynced = false
	}
	w.durGen, w.durOff = gen, off
	return nil
}

// covers reports whether the durable prefix covers an append that ended at
// offset off of generation gen. A later generation covers every earlier
// one: rotation seals a file only once all of it is fsynced. The caller
// holds syncMu.
func (w *WAL) covers(gen, off int64) bool {
	return w.durGen > gen || (w.durGen == gen && w.durOff >= off)
}

// SyncCount reports how many fsyncs of the log file the WAL has performed.
// Commits appended while a durability round is on disk share the next
// round's fsync, so N concurrent committers advance it by fewer than N; C13
// reports the ratio. A nil WAL (in-memory session, unpromoted replica)
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

// AppendCommit appends a commit record and returns once it is durable — the
// commit point. The record is appended under the append lock; then the
// caller takes the sync lock and returns at once if a round that ran while
// it waited covered the record, or runs the round itself. A round that
// leaves the active file at the segment size rotates it, so sealed segments
// always end with a commit record.
func (w *WAL) AppendCommit(rec *record.CommitRecord) error {
	w.mu.Lock()
	if err := w.appendLocked(rec); err != nil {
		w.mu.Unlock()
		return err
	}
	w.committed = w.size
	gen, off := w.gen, w.size
	w.mu.Unlock()
	w.commits.Add(1)

	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	if w.covers(gen, off) {
		return nil
	}
	if err := w.syncLocked(); err != nil {
		return err
	}
	if w.segBytes > 0 {
		// Rotation is space management, not part of the commit contract:
		// the commit record is already durable, so a rotation failure must
		// not make AppendCommit report failure (a caller would retry the
		// committed transaction and duplicate it). The next commit — or an
		// explicit Seal, which does surface errors — retries.
		_, _ = w.sealLocked(w.segBytes)
	}
	return nil
}

// Seal flushes and rotates the active file into a sealed segment regardless
// of the size threshold. It returns the sealed segment's sequence number, or
// 0 when there was nothing safe to seal: an empty active file, or an
// uncommitted tail (from a transaction in flight on another goroutine) that
// must stay in the active file so recovery can truncate it.
func (w *WAL) Seal() (int64, error) {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	if err := w.syncLocked(); err != nil {
		return 0, err
	}
	return w.sealLocked(1)
}

// sealLocked rotates the active file once it holds at least minSize bytes,
// all of them committed. A file is sealed only when durable in full, so
// what was appended since the caller's round is flushed, and fsynced under
// mu unless the prefix already covers it — at most once per segment. The
// caller holds syncMu.
func (w *WAL) sealLocked(minSize int64) (int64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.size < minSize || w.committed != w.size {
		return 0, nil
	}
	f, gen, off, err := w.flushBuffer()
	if err == nil && !w.covers(gen, off) {
		err = w.fsyncLocked(f, gen, off, nil)
	}
	if err != nil {
		return 0, err
	}
	return w.rotateLocked()
}

// rotateLocked renames the active file, fsynced and fully committed, to the
// next sealed segment and opens a fresh active file. The rename happens with
// the old file still open (the fd follows the inode), so a failure at any
// step leaves the WAL with a usable handle — rotation can fail, but it never
// poisons the log.
func (w *WAL) rotateLocked() (int64, error) {
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
		// let the next round retry the directory sync.
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
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
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
	if w.durGen == w.gen && w.durOff > off {
		w.durOff = off
	}
	return nil
}

// Close flushes and closes the file, releasing the project lock.
func (w *WAL) Close() error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
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
