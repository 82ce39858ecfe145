// Package flor is the public API of FlorDB-in-Go — a reproduction of
// "Flow with FlorDB: Incremental Context Maintenance for the Machine
// Learning Lifecycle" (CIDR 2025).
//
// The API mirrors §2.1 of the paper:
//
//	sess, _ := flor.Open(dir, "my-project")
//	defer sess.Close()
//
//	lr := sess.ArgFloat("lr", 1e-3)
//	ck := sess.Checkpointing(map[string]flor.Snapshotter{"model": net})
//	for it := sess.Loop("epoch", epochs); it.Next(); {
//	    ...
//	    sess.Log("loss", loss)
//	}
//	ck.Close()
//	sess.Log("acc", acc)
//	sess.Commit("trained")
//
//	df, _ := sess.Dataframe("acc", "recall")
//	best, _ := df.ArgMax("recall")
//
// Beyond the native Go API, sessions execute Flow pipeline scripts
// (RunScript) and perform multiversion hindsight logging over them
// (Hindsight): add a flor.log statement to the newest version of a script
// and FlorDB propagates it into all committed versions and replays them
// incrementally from checkpoints.
package flor

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"flordb/internal/build"
	"flordb/internal/metrics"
	"flordb/internal/pivot"
	"flordb/internal/record"
	"flordb/internal/relation"
	"flordb/internal/replay"
	"flordb/internal/script"
	"flordb/internal/sqlparse"
	"flordb/internal/storage"
	"flordb/internal/vcs"
)

// Snapshotter is re-exported so callers don't import internal packages.
type Snapshotter = script.Snapshotter

// Dataframe is the pivoted metadata view (flor.dataframe in the paper).
type Dataframe = pivot.Dataframe

// ErrClosed is returned by Session methods called after Close.
var ErrClosed = errors.New("flor: session is closed")

// ErrReadOnly is returned by mutating Session methods on a read-only
// replica session (OpenReplica) that has not been promoted.
var ErrReadOnly = errors.New("flor: session is read-only (replica; promote to write)")

// Session is one FlorDB project handle: a shared engine owning the metadata
// database, the WAL, and the version-control repository. Methods are safe
// for concurrent use unless noted.
//
// The read and write paths are decoupled: queries (SQL, Explain, Dataframe,
// Reader) run against pinned MVCC snapshots of the relational kernel and
// never block — or are blocked by — concurrent logging; commits group-commit
// in the WAL, so concurrent committers share fsyncs.
type Session struct {
	ProjID string

	mu        sync.Mutex
	runMu     sync.Mutex // serializes whole RunScript executions
	replMu    sync.Mutex // serializes ApplyReplicatedSegment and Promote
	dir       string     // "" for in-memory sessions
	walPath   string     // active WAL path; set even when wal is nil (replica mode)
	walOpts   storage.Options
	readOnly  atomic.Bool // replica mode: recording and commits fail with ErrReadOnly
	replLock  io.Closer   // project flock held in replica mode (OpenWAL holds it otherwise)
	db        *relation.Database
	tables    *record.Tables
	wal       *storage.WAL
	blobs     *storage.BlobStore // reads checkpoints older releases kept in objects/
	repo      *vcs.Repo
	tstamp    int64
	recorder  *replay.Recorder
	snapEvery int               // auto-compact every N commits (0 = never)
	sinceSnap int               // commits since the last auto-compaction
	retainSeg int               // sealed segments compaction always keeps (Options.RetainSegments)
	ackFloor  func() int64      // replication retention floor fed to the compactor
	workspace map[string]string // filename -> contents staged for commit
	hosts     map[string]script.HostFunc
	stdout    io.Writer
	plans     *sqlparse.PlanCache
	scanWkrs  int               // Options.ScanWorkers (0 = GOMAXPROCS)
	reg       *metrics.Registry // the one telemetry registry; every layer registers into it

	// Lifecycle: begin/end bracket every public operation so Close can
	// refuse new work (ErrClosed) and drain what is in flight before
	// releasing the WAL.
	closeMu  sync.Mutex
	closed   bool
	inflight sync.WaitGroup
}

// begin admits one public operation, failing once the session is closed.
func (s *Session) begin() error {
	s.closeMu.Lock()
	defer s.closeMu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.inflight.Add(1)
	return nil
}

func (s *Session) end() { s.inflight.Done() }

// beginRecording admits one recording call — Log, ArgInt, ArgFloat,
// ArgString, StageFile — which on a closed or read-only session does nothing
// and returns its default. When it reports true the caller must call end.
func (s *Session) beginRecording() bool {
	if s.begin() != nil {
		return false
	}
	if s.readOnly.Load() {
		s.end()
		return false
	}
	return true
}

// Options configures session opening.
type Options struct {
	// Args carries command-line overrides consumed by flor.arg.
	Args map[string]string
	// Policy selects the checkpointing policy (nil = adaptive 5%).
	Policy replay.CheckpointPolicy
	// NoSync disables every fsync the session makes — the WAL's, which
	// checkpoints ride in, and the repo.json journal's — so nothing is
	// durable across a machine crash (benchmarks).
	NoSync bool
	// SegmentBytes rotates flor.wal into sealed, numbered segments once the
	// active file reaches this size at a commit boundary. 0 applies the
	// default (storage.DefaultSegmentBytes); negative disables rotation.
	// Sealed segments are what compaction folds into snapshots and deletes.
	SegmentBytes int64
	// SnapshotEvery compacts automatically every N commits, keeping startup
	// O(live data) without explicit Session.Compact calls. The count is per
	// session: it starts at 0 when the session opens, not at the commits
	// the WAL already holds past the newest snapshot, and restarts after
	// each automatic compaction. A session that commits fewer than N times
	// — one run per process, say — never compacts automatically, and the
	// first compaction of a long-lived session folds every commit since the
	// newest snapshot, not only its own N. A compaction cycle
	// replays and encodes only the delta, copying the previous snapshot's
	// complete pages verbatim, but still verifies and decodes that snapshot
	// in full, so it costs O(live data) decode plus O(delta) work; it runs
	// synchronously inside the triggering Commit, so size N to amortize it.
	// A failed automatic compaction does not fail the Commit; it is counted
	// (compaction_failures at /metrics) and retried at the next commit. 0
	// disables auto-compaction.
	SnapshotEvery int
	// RetainSegments keeps the newest N sealed WAL segments on disk across
	// compactions even once a snapshot covers them, so read replicas that
	// connect late can still catch up over segments instead of forcing a
	// full snapshot re-seed. Replication additionally pins segments that a
	// live follower has not yet acked (Session.SetRetainFloor). 0 retains
	// nothing beyond the ack floor.
	RetainSegments int
	// RetainEpochs has no effect: every committed epoch stays readable by
	// AS OF. It remains only for callers that still set it.
	RetainEpochs int
	// ScanWorkers caps the worker pool SQL execution fans morsel-driven
	// parallel scans out over. 0 uses GOMAXPROCS; 1 forces serial scans.
	// The effective pool is min(GOMAXPROCS, ScanWorkers).
	ScanWorkers int
	// Stdout receives Flow script print output (nil = discard).
	Stdout io.Writer
}

// walOptions resolves Options into the storage options the WAL is (or, for a
// replica, would on promotion be) opened with.
func walOptions(opts Options) storage.Options {
	segBytes := opts.SegmentBytes
	if segBytes == 0 {
		segBytes = storage.DefaultSegmentBytes
	} else if segBytes < 0 {
		segBytes = 0
	}
	return storage.Options{NoSync: opts.NoSync, SegmentBytes: segBytes}
}

// Open opens (creating if necessary) the FlorDB project rooted at dir. All
// durable state lives under dir/.flor.
func Open(dir, projid string, opts Options) (*Session, error) {
	florDir := filepath.Join(dir, ".flor")
	if err := os.MkdirAll(florDir, 0o755); err != nil {
		return nil, fmt.Errorf("flor: %w", err)
	}
	walPath := filepath.Join(florDir, "flor.wal")
	wal, err := storage.OpenWAL(walPath, walOptions(opts))
	if err != nil {
		return nil, err
	}
	// Every error from here on closes the WAL, which releases the project
	// lock: a failed Open leaves nothing held, so the caller may retry.
	blobs, err := storage.NewBlobStore(filepath.Join(florDir, "objects"))
	if err != nil {
		wal.Close()
		return nil, err
	}
	repo, err := vcs.Load(filepath.Join(florDir, "repo.json"))
	if err != nil {
		wal.Close()
		return nil, err
	}
	s, err := newSession(projid, dir, wal, walPath, false, blobs, repo, opts)
	if err != nil {
		wal.Close()
		return nil, err
	}
	return s, nil
}

// OpenReplica opens the project rooted at dir as a read-only replica: state
// is recovered from the local table snapshot plus sealed WAL segments (the
// units replication ships), no active WAL file is created, and every
// mutating method fails with ErrReadOnly. Replication applies shipped
// history with ApplyReplicatedSegment, publishing one MVCC epoch per
// replicated commit so snapshot readers observe whole transactions; Promote
// flips the session writable after a failover.
//
// The project flock is held exactly as a writable session holds it, so one
// process replicates into a directory at a time. A non-empty active WAL
// file is refused: it means the directory belonged to a writable session
// (or a promoted replica), and tailing a different primary over it would
// interleave two histories.
func OpenReplica(dir, projid string, opts Options) (*Session, error) {
	florDir := filepath.Join(dir, ".flor")
	if err := os.MkdirAll(florDir, 0o755); err != nil {
		return nil, fmt.Errorf("flor: %w", err)
	}
	walPath := filepath.Join(florDir, "flor.wal")
	lock, err := storage.LockProject(walPath)
	if err != nil {
		return nil, err
	}
	if st, err := os.Stat(walPath); err == nil && st.Size() > 0 {
		lock.Close()
		return nil, fmt.Errorf("flor: %s has a non-empty active WAL; refusing to open as a replica of another history", walPath)
	}
	blobs, err := storage.NewBlobStore(filepath.Join(florDir, "objects"))
	if err != nil {
		lock.Close()
		return nil, err
	}
	repo, err := vcs.Load(filepath.Join(florDir, "repo.json"))
	if err != nil {
		lock.Close()
		return nil, err
	}
	s, err := newSession(projid, dir, nil, walPath, true, blobs, repo, opts)
	if err != nil {
		lock.Close()
		return nil, err
	}
	s.replLock = lock
	return s, nil
}

// OpenMemory creates an ephemeral in-memory session (no WAL, no files);
// useful for tests and benchmarks.
func OpenMemory(projid string, opts Options) (*Session, error) {
	return newSession(projid, "", nil, "", false, nil, vcs.NewRepo(), opts)
}

func newSession(projid, dir string, wal *storage.WAL, walPath string, readOnly bool, blobs *storage.BlobStore, repo *vcs.Repo, opts Options) (*Session, error) {
	db := relation.NewDatabase()
	tables, err := record.CreateTables(db)
	if err != nil {
		return nil, err
	}
	s := &Session{
		ProjID:    projid,
		dir:       dir,
		walPath:   walPath,
		walOpts:   walOptions(opts),
		db:        db,
		tables:    tables,
		wal:       wal,
		blobs:     blobs,
		repo:      repo,
		tstamp:    1,
		snapEvery: opts.SnapshotEvery,
		retainSeg: opts.RetainSegments,
		workspace: make(map[string]string),
		hosts:     make(map[string]script.HostFunc),
		stdout:    opts.Stdout,
		plans:     sqlparse.NewPlanCache(0),
		scanWkrs:  opts.ScanWorkers,
		reg:       metrics.NewRegistry(),
	}
	repo.SetNoSync(opts.NoSync)
	db.RegisterMetrics(s.reg)
	wal.RegisterMetrics(s.reg)
	s.plans.RegisterMetrics(s.reg)
	s.reg.IntGauge("scan_workers", func() int64 { return int64(sqlparse.EffectiveScanWorkers(s.scanWkrs)) })
	// Compaction instruments exist from the start, so /metrics serves them
	// at zero on every session, a replica that may be promoted included.
	s.reg.Histogram("compact")
	for _, name := range []string{"compactions", "compaction_failures", "compact_pages_copied", "compact_pages_encoded"} {
		s.reg.Counter(name)
	}
	if s.stdout == nil {
		s.stdout = io.Discard
	}
	s.readOnly.Store(readOnly)

	// Recover prior state from the WAL (or, for a replica, from the local
	// snapshot plus the sealed segments replication has installed so far).
	// Recovery positions the MVCC epoch from the snapshot meta and advances
	// it once per replayed commit record, so the recovered database counts
	// exactly the commit records of its whole history — the same epoch the
	// crashed session (and any replica of it) had.
	if walPath != "" {
		maxTs, err := s.recover()
		if err != nil {
			return nil, err
		}
		if maxTs >= s.tstamp {
			s.tstamp = maxTs + 1
		}
	}

	// Register the git virtual table over the repo.
	gitVT := &relation.FuncVirtualTable{
		TableName:   "git",
		TableSchema: record.GitSchema(),
		RowsFn: func() []relation.Row {
			raw, err := s.repo.GitRows()
			if err != nil {
				return nil
			}
			rows := make([]relation.Row, len(raw))
			for i, r := range raw {
				parent := relation.Null()
				if r[2] != "" {
					parent = relation.Text(r[2])
				}
				rows[i] = relation.Row{relation.Text(r[0]), relation.Text(r[1]), parent, relation.Text(r[3])}
			}
			return rows
		},
	}
	if err := db.RegisterVirtual(gitVT); err != nil {
		return nil, err
	}

	ctx := &replay.Context{ProjID: projid, Tstamp: s.tstamp, Tables: tables, WAL: wal}
	ctx.SetFilename("main")
	ckpt := replay.NewCheckpointManager(opts.Policy)
	s.recorder = replay.NewRecorder(ctx, ckpt)
	s.recorder.Args = opts.Args
	v, err := s.LatestReader()
	if err != nil {
		return nil, err
	}
	s.recorder.SetCtxCounter(replay.MaxCtxID(v.view))
	s.recorder.OnCommit = func() error { return s.Commit("") }
	return s, nil
}

// state is the session's in-memory state as the storage log consumer
// rebuilds it and the commit arm publishes into: the tables and the database
// whose MVCC clock they share.
func (s *Session) state() storage.State {
	return storage.State{DB: s.db, Tables: s.tables, Blobs: s.blobs}
}

// recover rebuilds the session's state from the newest valid snapshot plus
// the WAL tail (storage.State.Recover). Recovery is strict — only records
// covered by a commit are visible (§2.1) — and the uncommitted or torn tail
// of the active WAL file is truncated so a later commit cannot resurrect
// records that were never durable.
func (s *Session) recover() (int64, error) {
	res, err := s.state().Recover(s.walPath, true)
	if err != nil {
		return 0, err
	}
	// A replica has no active WAL file to truncate: only sealed segments and
	// snapshots ever reach its directory, and both are commit-aligned.
	if s.wal != nil {
		if err := s.wal.Truncate(res.ActiveCommittedLen); err != nil {
			return 0, err
		}
	}
	return res.MaxTstamp, nil
}

// Tstamp returns the current logical timestamp (version counter).
func (s *Session) Tstamp() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tstamp
}

// SetFilename sets the filename recorded on subsequent native-API log
// records (the paper profiles the executing file automatically; Go programs
// declare it).
func (s *Session) SetFilename(name string) {
	s.recorder.Ctx.SetFilename(name)
}

// ---------- Native Go API (§2.1) ----------

// Log records a named value and returns it (flor.log). On a closed or
// read-only session the value passes through unrecorded.
func (s *Session) Log(name string, v any) any {
	if !s.beginRecording() {
		return v
	}
	defer s.end()
	out, err := s.recorder.Log(name, toScriptValue(v))
	if err != nil {
		return v
	}
	return out
}

// ArgInt resolves an integer hyperparameter (flor.arg). Closed and
// read-only sessions resolve to the default without recording.
func (s *Session) ArgInt(name string, def int64) int64 {
	if !s.beginRecording() {
		return def
	}
	defer s.end()
	v, err := s.recorder.Arg(name, def)
	if err != nil {
		return def
	}
	return v.(int64)
}

// ArgFloat resolves a float hyperparameter (flor.arg).
func (s *Session) ArgFloat(name string, def float64) float64 {
	if !s.beginRecording() {
		return def
	}
	defer s.end()
	v, err := s.recorder.Arg(name, def)
	if err != nil {
		return def
	}
	return v.(float64)
}

// ArgString resolves a string hyperparameter (flor.arg).
func (s *Session) ArgString(name, def string) string {
	if !s.beginRecording() {
		return def
	}
	defer s.end()
	v, err := s.recorder.Arg(name, def)
	if err != nil {
		return def
	}
	return v.(string)
}

// LoopIter drives one flor.loop from native Go code.
type LoopIter struct {
	session script.LoopSession
	vals    []script.Value
	i       int // -1 before the first iteration
	err     error
	closed  bool
}

// Loop begins a named loop over n iterations (flor.loop). Iterate with
// Next/Index; the loop closes itself when Next returns false. A loop that
// may be left early — break, return, a panic — needs Close, or its open
// iteration stays the context of the session's later records:
//
//	it := sess.Loop("epoch", n)
//	defer it.Close()
//	for it.Next() { ... }
//
// Loop contexts belong to the session, not to a goroutine: while an
// iteration is open, a Log from any goroutine lands in it. Like the commit
// boundaries of Reader, loop nesting holds when one goroutine records at a
// time.
func (s *Session) Loop(name string, n int) *LoopIter {
	vals := make([]script.Value, n)
	for i := range vals {
		vals[i] = int64(i)
	}
	return s.loop(name, vals)
}

// LoopVals begins a named loop over explicit values (e.g. document names);
// it is Loop's counterpart and closes as Loop does.
func (s *Session) LoopVals(name string, vals []string) *LoopIter {
	sv := make([]script.Value, len(vals))
	for i, v := range vals {
		sv[i] = v
	}
	return s.loop(name, sv)
}

func (s *Session) loop(name string, vals []script.Value) *LoopIter {
	it := &LoopIter{vals: vals, i: -1}
	if it.err = s.begin(); it.err != nil {
		return it
	}
	defer s.end()
	if s.readOnly.Load() {
		it.err = ErrReadOnly
		return it
	}
	it.session, it.err = s.recorder.LoopBegin(name, vals)
	return it
}

// Next advances the loop; it returns false at the end or on an error, and
// then closes the loop (Close).
func (it *LoopIter) Next() bool {
	if it.err == nil && !it.closed {
		if it.err = it.advance(); it.err == nil && it.i < len(it.vals) {
			return true
		}
	}
	it.Close()
	return false
}

// advance ends the current iteration, if any, and begins the next one
// unless the loop is done.
func (it *LoopIter) advance() error {
	if it.i >= 0 {
		if err := it.session.PostIter(it.i, it.vals[it.i]); err != nil {
			return err
		}
	}
	if it.i++; it.i >= len(it.vals) {
		return nil
	}
	_, err := it.session.Decide(it.i, it.vals[it.i]) // recording always runs
	return err
}

// Index returns the current iteration index.
func (it *LoopIter) Index() int { return it.i }

// Err reports any error the loop hit.
func (it *LoopIter) Err() error { return it.err }

// Close ends the loop and closes the context of an iteration Next opened
// and no later Next closed, so the session's next records land in the
// enclosing context again. Calls after the first do nothing. It returns the
// loop's error, as Err does.
func (it *LoopIter) Close() error {
	if it.closed || it.session == nil {
		return it.err
	}
	it.closed = true
	if err := it.session.End(); it.err == nil {
		it.err = err
	}
	return it.err
}

// Checkpointing opens a flor.checkpointing scope over the given objects.
// Close it when the training loop finishes.
type CheckpointScope struct{ rec *replay.Recorder }

// Checkpointing registers objects for adaptive checkpointing.
func (s *Session) Checkpointing(objs map[string]Snapshotter) (*CheckpointScope, error) {
	if err := s.begin(); err != nil {
		return nil, err
	}
	defer s.end()
	if s.readOnly.Load() {
		return nil, ErrReadOnly
	}
	m := make(map[string]script.Value, len(objs))
	for k, v := range objs {
		m[k] = v
	}
	if err := s.recorder.CheckpointingBegin(m); err != nil {
		return nil, err
	}
	return &CheckpointScope{rec: s.recorder}, nil
}

// Close ends the checkpointing scope.
func (c *CheckpointScope) Close() error { return c.rec.CheckpointingEnd() }

// StageFile registers file contents to be captured by the next Commit —
// FlorDB's automatic version control of executed code. Closed and read-only
// sessions ignore it.
func (s *Session) StageFile(name, contents string) {
	if !s.beginRecording() {
		return
	}
	defer s.end()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.workspace[name] = contents
}

// Commit is flor.commit(): it snapshots the staged workspace into the
// version store, appends a durable commit record, increments the logical
// timestamp, and publishes the record — its ts2vid row and a stamped epoch —
// so committed snapshots see the transaction (§2.1).
//
// All disk work happens outside the session mutex, journal first: the
// version is fsynced into repo.json strictly before the WAL commit record
// that names it, so a durable ts2vid row always resolves (DESIGN §7,
// invariant 5). The WAL fsync happens outside the WAL's append lock too, so
// loggers on other goroutines are never stalled behind a commit's disk
// wait, and commits appended while one is on disk share the next fsync
// (DESIGN §8).
func (s *Session) Commit(message string) error {
	if err := s.begin(); err != nil {
		return err
	}
	defer s.end()
	if s.readOnly.Load() {
		return ErrReadOnly
	}

	s.mu.Lock()
	var vid string
	if len(s.workspace) > 0 {
		files := make(map[string]string, len(s.workspace))
		for k, v := range s.workspace {
			files[k] = v
		}
		v, err := s.repo.CommitFiles(files, message, time.Now())
		if err != nil {
			s.mu.Unlock()
			return err
		}
		vid = v
	}
	rec := &record.CommitRecord{
		Kind: record.KindCommit, ProjID: s.ProjID, Tstamp: s.tstamp,
		VID: vid, Wall: time.Now().UTC(),
	}
	wal := s.wal
	s.tstamp++
	s.recorder.Ctx.SetTstamp(s.tstamp)
	s.mu.Unlock()

	// Only a commit that staged files changed the version store; a pure
	// log+commit leaves repo.json as it is. Save persists every version not
	// yet journalled, this one included, whoever made it.
	if vid != "" && s.dir != "" {
		if err := s.repo.Save(filepath.Join(s.dir, ".flor", "repo.json")); err != nil {
			return err
		}
	}
	if wal != nil {
		// Group commit: append under the WAL's append lock, then return
		// once a durability round covers the record — another committer's
		// or this one's.
		if err := wal.AppendCommit(rec); err != nil {
			return err
		}
	}
	// Publish the commit boundary through the log consumer's commit arm,
	// which replay reaches for the same record: the ts2vid row, then an
	// epoch stamped with the record's wall clock. Rows logged before this
	// point become visible to committed-epoch snapshots taken from now on.
	if err := s.state().Publish(rec); err != nil {
		return err
	}

	if wal != nil && s.snapEvery > 0 {
		s.mu.Lock()
		s.sinceSnap++
		if s.sinceSnap >= s.snapEvery {
			// Compaction is an optimization, not part of commit durability:
			// the commit record is already fsynced, so a failed compaction
			// must not make a successful Commit report an error (a caller
			// retrying the "failed" transaction would duplicate it). The
			// counter resets only when a snapshot actually covers history —
			// an error, or a no-op because a concurrent append kept the WAL
			// tail unsealable, retries at the next commit. compactLocked
			// counts every failure, so a persistent one shows at /metrics.
			if st, err := s.compactLocked(); err == nil && st.SnapshotSeq > 0 {
				s.sinceSnap = 0
			}
		}
		s.mu.Unlock()
	}
	return nil
}

// Compact folds the WAL's sealed history into a durable table snapshot and
// deletes the covered segments, making the next Open O(live data) instead of
// O(total history). It is safe to call while other goroutines log and
// commit; only data committed before the call is guaranteed to be covered.
func (s *Session) Compact() (storage.CompactStats, error) {
	if err := s.begin(); err != nil {
		return storage.CompactStats{}, err
	}
	defer s.end()
	if s.readOnly.Load() {
		return storage.CompactStats{}, ErrReadOnly
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compactLocked()
}

// compactLocked runs one compaction cycle and reports it to the session
// registry: its duration in the compact histogram, and either a failure or a
// completed cycle with the pages it copied and encoded.
func (s *Session) compactLocked() (storage.CompactStats, error) {
	if s.wal == nil {
		return storage.CompactStats{}, fmt.Errorf("flor: in-memory session has no WAL to compact")
	}
	c := &storage.Compactor{
		WAL: s.wal, Blobs: s.blobs,
		RetainSegments: s.retainSeg, RetainFloor: s.ackFloor,
	}
	start := time.Now()
	st, err := c.Compact()
	s.reg.Histogram("compact").Observe(int64(time.Since(start)))
	if err != nil {
		s.reg.Counter("compaction_failures").Inc()
		return st, err
	}
	s.reg.Counter("compactions").Inc()
	s.reg.Counter("compact_pages_copied").Add(int64(st.PagesCopied))
	s.reg.Counter("compact_pages_encoded").Add(int64(st.PagesEncoded))
	return st, nil
}

// SetRetainFloor installs the replication retention floor: a function
// returning the lowest sealed-segment sequence a live follower still needs
// (math.MaxInt64 for "no constraint"). Compaction keeps segments at or above
// the floor even once a snapshot covers them, so shipping can never lose a
// race against the compactor. internal/repl's primary installs this from its
// follower ack tracking.
func (s *Session) SetRetainFloor(fn func() int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ackFloor = fn
}

// GCStats reports what one GCEpochs call did: nothing.
type GCStats struct {
	// RowsReclaimed is always 0: tables are insert-only.
	RowsReclaimed int
}

// GCEpochs does nothing: tables are insert-only and every committed epoch
// stays readable by AS OF, so there is no history to retire. It fails only
// on a closed session or an unpromoted replica, like any write. It, GCStats,
// RetentionFloor, GCRowsReclaimed and Options.RetainEpochs remain only for
// callers that still use them.
func (s *Session) GCEpochs() (GCStats, error) {
	if err := s.begin(); err != nil {
		return GCStats{}, err
	}
	defer s.end()
	if s.readOnly.Load() {
		return GCStats{}, ErrReadOnly
	}
	return GCStats{}, nil
}

// RetentionFloor returns the lowest epoch ReaderAt and AS OF may target:
// always 0.
func (s *Session) RetentionFloor() int64 { return 0 }

// GCRowsReclaimed returns the row versions GCEpochs has reclaimed since the
// session opened: always 0, because tables are insert-only.
func (s *Session) GCRowsReclaimed() int64 { return 0 }

// ---------- Replication ----------

// ReadOnly reports whether the session is an unpromoted replica.
func (s *Session) ReadOnly() bool { return s.readOnly.Load() }

// WALPath returns the session's active WAL path ("" for in-memory sessions).
// Replication uses it to derive segment and snapshot file paths.
func (s *Session) WALPath() string { return s.walPath }

// ApplyReplicatedSegment replays the sealed segment with the given sequence —
// already fetched, CRC-verified, and installed under the session's WAL
// directory by internal/repl — into the replica's tables. One MVCC epoch is
// published per commit record, so concurrent snapshot readers only ever
// observe whole transactions, exactly as they would on the primary. The
// session's logical timestamp advances past the segment's newest commit.
//
// Apply is idempotent-by-construction at the file level: a crash mid-apply
// loses only in-memory state, and the next OpenReplica recovers by replaying
// every installed segment from scratch. Only read-only sessions may apply;
// calls race neither each other nor Promote (both serialize on an internal
// mutex).
func (s *Session) ApplyReplicatedSegment(seq int64) error {
	if err := s.begin(); err != nil {
		return err
	}
	defer s.end()
	s.replMu.Lock()
	defer s.replMu.Unlock()
	if !s.readOnly.Load() {
		return fmt.Errorf("flor: ApplyReplicatedSegment on a writable session (segment %d): replication must stop at promotion", seq)
	}
	maxTs, err := s.state().ApplySegment(s.walPath, seq)
	if err != nil {
		return err
	}
	s.mu.Lock()
	if maxTs >= s.tstamp {
		s.tstamp = maxTs + 1
		s.recorder.Ctx.SetTstamp(s.tstamp)
	}
	s.mu.Unlock()
	return nil
}

// Promote flips a replica session writable after a failover: it releases the
// replica's hold on the project lock, opens the active WAL exactly as Open
// would (continuing segment numbering past the replicated history), and
// clears the read-only bit. Callers are responsible for the safety check
// that the replica has replayed through the last commit the primary acked —
// internal/repl's follower performs it before calling Promote.
//
// Promoting is idempotent; promoting an in-memory session is an error. On
// failure the session stays a functioning read-only replica (the project
// lock is re-acquired best-effort; losing it to a concurrent process is
// surfaced by that process failing to open the WAL, never by silent
// double-writing — OpenWAL takes the same lock).
func (s *Session) Promote() error {
	if err := s.begin(); err != nil {
		return err
	}
	defer s.end()
	s.replMu.Lock()
	defer s.replMu.Unlock()
	if !s.readOnly.Load() {
		return nil
	}
	if s.walPath == "" {
		return fmt.Errorf("flor: in-memory session cannot be promoted")
	}
	// flock is per file-description: the fresh lock OpenWAL takes would
	// conflict with the replica's own, so release ours first. The window is
	// safe — any process that steals the lock in between makes our OpenWAL
	// fail, and we fall back to read-only.
	if s.replLock != nil {
		if err := s.replLock.Close(); err != nil {
			return fmt.Errorf("flor: promote: release replica lock: %w", err)
		}
		s.replLock = nil
	}
	wal, err := storage.OpenWAL(s.walPath, s.walOpts)
	if err != nil {
		if lock, lerr := storage.LockProject(s.walPath); lerr == nil {
			s.replLock = lock
		}
		return fmt.Errorf("flor: promote: %w", err)
	}
	s.mu.Lock()
	s.wal = wal
	s.recorder.Ctx.WAL = wal
	s.mu.Unlock()
	wal.RegisterMetrics(s.reg)
	s.readOnly.Store(false)
	return nil
}

// ---------- Query surface ----------

// SnapshotView is a cheap, immutable reader handle pinned to one epoch of
// the session's database. Pinning copies nothing; any number of views can
// query concurrently with each other and with the writing session, and a
// multi-table join inside one view always observes a single consistent
// state. Views stay readable after the session closes (they reference only
// in-memory state), but new views cannot be created then.
type SnapshotView struct {
	sess *Session
	snap *relation.Snapshot
	view *record.TablesView
}

// Reader pins a read-only view at the current committed epoch: every
// transaction committed before the call is visible, transactions in flight
// are not. This is the handle concurrent serving paths (dashboards, the
// HTTP API, the web UI) should hold per request.
//
// Commit boundaries are session-global, mirroring the WAL's durability
// contract (a commit record covers every record appended before it): a
// Commit publishes all rows logged before it, whichever goroutine logged
// them. Transaction atomicity under Reader therefore holds when write
// transactions are serialized — as RunScript-driven writes are — not when
// independent goroutines interleave Log/Commit sequences on one session.
func (s *Session) Reader() (*SnapshotView, error) {
	return s.makeView(s.db.Snapshot(), nil)
}

// LatestReader pins a view at the in-flight write epoch: committed state
// plus the session's own uncommitted rows. It preserves read-your-writes
// for the recording process itself (a training loop inspecting metrics it
// just logged); serving paths should prefer Reader.
func (s *Session) LatestReader() (*SnapshotView, error) {
	return s.makeView(s.db.SnapshotLatest(), nil)
}

// ReaderAt pins a read-only view at a historical committed epoch — the
// time-travel analog of Reader. Epoch e sees exactly the first e commits of
// the project's history, on the primary, on any replica, and across restarts
// and compactions (epochs count commit records since project birth). Every
// committed epoch is readable; future epochs are refused.
func (s *Session) ReaderAt(epoch int64) (*SnapshotView, error) {
	return s.makeView(s.db.SnapshotAt(epoch))
}

// makeView is the one view constructor: it opens the record layer's table
// view over a snapshot the caller pinned. A pin has no side effect, so it may
// be taken before the session admits the call; a closed session still
// answers ErrClosed before any pin error.
func (s *Session) makeView(snap *relation.Snapshot, pinErr error) (*SnapshotView, error) {
	if err := s.begin(); err != nil {
		return nil, err
	}
	defer s.end()
	if pinErr != nil {
		return nil, pinErr
	}
	view, err := s.tables.At(snap)
	if err != nil {
		return nil, err
	}
	return &SnapshotView{sess: s, snap: snap, view: view}, nil
}

// Epoch returns the committed epoch the view is pinned at.
func (v *SnapshotView) Epoch() int64 { return v.snap.Epoch() }

// Close does nothing and returns nil: a view holds no resource, and its data
// stays readable for as long as it is referenced. It is kept only for the
// benchmark harness, which still calls it.
func (v *SnapshotView) Close() error { return nil }

// SQL runs a SQL query against the pinned state. Repeated query texts hit
// the session's LRU plan cache. An `AS OF <epoch>` clause rebases the query
// at the historical epoch; `AS OF TIMESTAMP '<ts>'` first resolves the
// timestamp to the greatest epoch committed at or before it, no later than
// the view's pin, through the database's MVCC clock.
func (v *SnapshotView) SQL(query string) (*sqlparse.Result, error) {
	stmt, err := v.sess.plans.Parse(query)
	if err != nil {
		return nil, err
	}
	return sqlparse.ExecuteOptions(v.snap, stmt, v.sess.execOptions())
}

// execOptions resolves the session's execution tuning.
func (s *Session) execOptions() sqlparse.ExecOptions {
	return sqlparse.ExecOptions{ScanWorkers: s.scanWkrs}
}

// Explain returns the plan the planner chooses for the query against the
// pinned state.
func (v *SnapshotView) Explain(query string) (string, error) {
	stmt, err := v.sess.plans.Parse(query)
	if err != nil {
		return "", err
	}
	if !stmt.Explain {
		// The cached statement is never mutated: a shallow copy carries the
		// flag.
		clone := *stmt
		clone.Explain = true
		stmt = &clone
	}
	res, err := sqlparse.ExecuteOptions(v.snap, stmt, v.sess.execOptions())
	if err != nil {
		return "", err
	}
	lines := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		lines[i] = r[0].String()
	}
	return strings.Join(lines, "\n"), nil
}

// Dataframe pivots the named logged values across all versions visible in
// the view.
func (v *SnapshotView) Dataframe(names ...string) (*Dataframe, error) {
	return pivot.Build(v.view, v.sess.ProjID, names, pivot.Options{})
}

// DataframeAt pivots restricted to one file and/or version.
func (v *SnapshotView) DataframeAt(filename string, tstamp int64, names ...string) (*Dataframe, error) {
	return pivot.Build(v.view, v.sess.ProjID, names, pivot.Options{Filename: filename, Tstamp: tstamp})
}

// Dataframe pivots the named logged values across all versions (§2.1
// flor.dataframe). It reads through a latest-epoch snapshot: concurrent
// logging cannot disturb the pivot mid-build.
func (s *Session) Dataframe(names ...string) (*Dataframe, error) {
	v, err := s.LatestReader()
	if err != nil {
		return nil, err
	}
	return v.Dataframe(names...)
}

// DataframeAt pivots restricted to one file and/or version.
func (s *Session) DataframeAt(filename string, tstamp int64, names ...string) (*Dataframe, error) {
	v, err := s.LatestReader()
	if err != nil {
		return nil, err
	}
	return v.DataframeAt(filename, tstamp, names...)
}

// SQL runs a SQL query over the Figure-1 schema (logs, loops, ts2vid,
// obj_store, args, git, build_deps when registered). Prefix a query with
// EXPLAIN to get the chosen query plan instead of rows. The query executes
// against a latest-epoch snapshot pinned at call time, so multi-table joins
// are consistent even while other goroutines log; repeated query texts hit
// the LRU plan cache.
func (s *Session) SQL(query string) (*sqlparse.Result, error) {
	v, err := s.LatestReader()
	if err != nil {
		return nil, err
	}
	return v.SQL(query)
}

// Explain returns the query plan the planner chose for a SQL query as
// indented text, one operator per line — equivalent to running the query
// with an EXPLAIN prefix.
func (s *Session) Explain(query string) (string, error) {
	v, err := s.LatestReader()
	if err != nil {
		return "", err
	}
	return v.Explain(query)
}

// Database exposes the catalog (for registering additional virtual tables,
// e.g. build_deps).
func (s *Session) Database() *relation.Database { return s.db }

// Tables exposes the base tables (read-mostly; used by the web UI).
func (s *Session) Tables() *record.Tables { return s.tables }

// Metrics returns the session's telemetry registry: the one place every
// layer (relation, storage, sqlparse, the session itself, and the repl and
// server tiers built over it) registers its instruments, and the one
// snapshot /metrics and /healthz serve.
func (s *Session) Metrics() *metrics.Registry { return s.reg }

// currentWAL reads the WAL pointer under s.mu: Promote installs one on a
// live session, so unsynchronized readers would race it.
func (s *Session) currentWAL() *storage.WAL {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.wal
}

// WALSyncCount reports how many fsyncs of its log file the session's WAL
// has performed (0 for in-memory sessions) — group-commit observability:
// commits appended while a round is on disk share the next round's fsync,
// so under N concurrent committers it grows by fewer than N.
func (s *Session) WALSyncCount() int64 { return s.currentWAL().SyncCount() }

// WALCommitCount reports how many commit records the session's WAL has
// appended since open (0 for in-memory sessions).
func (s *Session) WALCommitCount() int64 { return s.currentWAL().CommitCount() }

// PlanCacheStats reports the session plan cache's hits and misses since
// open.
func (s *Session) PlanCacheStats() (hits, misses uint64) {
	return s.plans.Stats()
}

// Hooks exposes the session's recording hooks for direct use with a Flow
// interpreter (benchmarks isolate hook cost this way; normal callers should
// use RunScript).
func (s *Session) Hooks() script.FlorHooks { return s.recorder }

// Repo exposes the version store.
func (s *Session) Repo() *vcs.Repo { return s.repo }

// RegisterBuild installs a makefile's build_deps virtual table.
func (s *Session) RegisterBuild(mf *build.Makefile, runner *build.Runner) error {
	return s.db.RegisterVirtual(build.DepsVirtualTable(mf, runner, ""))
}

// ---------- Flow scripts ----------

// RegisterHost exposes a Go function to Flow scripts run by this session.
func (s *Session) RegisterHost(name string, fn script.HostFunc) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hosts[name] = fn
}

// RunScript executes a Flow script under recording: logs, loops, args and
// checkpoints are captured with the script's filename; the source is staged
// so the next Commit versions it. The paper's equivalent is `python
// train.py` under FlorDB instrumentation. Script runs are serialized:
// recording attributes every record to the session's current filename, so
// concurrent callers (parallel build targets, web UI handlers) queue here.
func (s *Session) RunScript(filename, src string) error {
	if err := s.begin(); err != nil {
		return err
	}
	defer s.end()
	if s.readOnly.Load() {
		return ErrReadOnly
	}
	f, err := script.Parse(filename, src)
	if err != nil {
		return err
	}
	s.runMu.Lock()
	defer s.runMu.Unlock()
	prevFile := s.recorder.Ctx.Filename()
	s.recorder.Ctx.SetFilename(filename)
	s.mu.Lock()
	s.workspace[filename] = src
	hosts := make(map[string]script.HostFunc, len(s.hosts))
	for k, v := range s.hosts {
		hosts[k] = v
	}
	stdout := s.stdout
	s.mu.Unlock()

	in := script.NewInterp(s.recorder, stdout)
	for name, fn := range hosts {
		in.RegisterHost(name, fn)
	}
	runErr := in.Run(f)
	s.recorder.Ctx.SetFilename(prevFile)
	return runErr
}

// ---------- Multiversion hindsight logging ----------

// HindsightReport summarizes one version's backfill.
type HindsightReport = replay.VersionReport

// Hindsight performs the paper's §2 "magic trick" for a script file: the
// new source's added log statements are propagated into every committed
// version of the file and replayed incrementally (from checkpoints, in
// parallel) to materialize the new metadata retroactively. Each version
// replays once, under a plan fixed from its merged script before the replay
// starts (DESIGN §3), and logs what re-executing that script would log for
// the new names.
//
// targets optionally restricts which checkpoint-loop iterations are
// materialized: logs and loops rows are written only inside those
// iterations. Other iterations, and statements before the checkpoint loop,
// run only to rebuild state; a version's replay ends after the last
// iteration its plan runs. nil materializes everything.
//
// Hindsight reads through two pins. The versions it backfills are those
// committed at a Reader pin. Their args, loop contexts and checkpoints are
// read at a LatestReader pin taken after it, so a backfill that is not yet
// committed (an in-memory session, or a transaction in flight) lends its
// loop contexts to the next one. Loop contexts it creates draw their
// ctx_ids from the recorder's allocator.
//
// Recording may run beside Hindsight: it changes neither what the backfill
// reads nor the ctx_ids either allocates. Durability is not yet the
// backfill's own. When the WAL tail was committed at the start, the commit
// marker appended at the end commits and publishes every record logged
// before it, including the part of a concurrent transaction already logged.
// When the tail was not committed, no marker is written and the backfilled
// rows ride on the next Commit.
func (s *Session) Hindsight(filename, newSrc string, targets []int) ([]HindsightReport, error) {
	if err := s.begin(); err != nil {
		return nil, err
	}
	defer s.end()
	if s.readOnly.Load() {
		return nil, ErrReadOnly
	}
	committed, err := s.Reader()
	if err != nil {
		return nil, err
	}
	latest, err := s.LatestReader()
	if err != nil {
		return nil, err
	}
	versions, err := replay.HistoricalVersions(s.repo, committed.view, s.ProjID, filename)
	if err != nil {
		return nil, err
	}
	if len(versions) == 0 {
		return nil, fmt.Errorf("flor: no committed versions of %s to backfill", filename)
	}
	s.mu.Lock()
	hosts := make(map[string]script.HostFunc, len(s.hosts))
	for k, v := range s.hosts {
		hosts[k] = v
	}
	s.mu.Unlock()
	d := &replay.Driver{
		Repo: s.repo, Tables: s.tables, View: latest.view, WAL: s.wal,
		ProjID: s.ProjID, NextCtx: s.recorder.NextCtx,
		Setup: func(in *script.Interp) {
			for name, fn := range hosts {
				in.RegisterHost(name, fn)
			}
		},
	}
	// Backfilled records carry historical tstamps and would otherwise sit in
	// the uncommitted WAL tail, which strict recovery discards. When the
	// tail was committed before the backfill started, only backfill records
	// are in it, so a commit marker makes them durable immediately. When the
	// caller has a transaction in flight, a marker would wrongly commit
	// those records too — so the backfill simply rides along with the
	// caller's next Commit instead.
	tailWasCommitted := s.wal != nil && s.wal.TailCommitted()
	reports, err := d.Hindsight(filename, newSrc, versions, targets)
	if err == nil && tailWasCommitted {
		// Tstamp s.tstamp-1 keeps the recovered version counter equal to the
		// live one (commit markers do not open a new version). s.mu only
		// guards the tstamp read: the fsync inside AppendCommit happens
		// after the unlock, per the group-commit ordering rule (DESIGN §8)
		// that lockfsync enforces. The marker is a commit boundary: it
		// publishes the backfilled rows to committed-epoch readers too.
		s.mu.Lock()
		mark := &record.CommitRecord{
			Kind: record.KindCommit, ProjID: s.ProjID,
			Tstamp: s.tstamp - 1, Wall: time.Now().UTC(),
		}
		s.mu.Unlock()
		if werr := s.wal.AppendCommit(mark); werr != nil {
			return reports, werr
		}
		if perr := s.state().Publish(mark); perr != nil {
			return reports, perr
		}
	}
	return reports, err
}

// Versions lists the committed versions of a file, oldest first.
func (s *Session) Versions(filename string) ([]replay.VersionJob, error) {
	v, err := s.Reader()
	if err != nil {
		return nil, err
	}
	return replay.HistoricalVersions(s.repo, v.view, s.ProjID, filename)
}

// LoggedNamesAcrossVersions returns, per version timestamp, the set of value
// names logged — useful for seeing which versions are missing which metadata.
// It reads the session's latest state, its own uncommitted rows included.
func (s *Session) LoggedNamesAcrossVersions() map[int64][]string {
	snap := s.db.SnapshotLatest()
	logs, _ := snap.Table("logs")
	byTs := make(map[int64]map[string]bool)
	logs.Scan(func(_ relation.RowID, r relation.Row) bool {
		if r[0].AsText() != s.ProjID {
			return true
		}
		ts := r[1].AsInt()
		if byTs[ts] == nil {
			byTs[ts] = make(map[string]bool)
		}
		byTs[ts][r[4].AsText()] = true
		return true
	})
	out := make(map[int64][]string, len(byTs))
	for ts, set := range byTs {
		names := make([]string, 0, len(set))
		for n := range set {
			names = append(names, n)
		}
		sort.Strings(names)
		out[ts] = names
	}
	return out
}

// Close marks the session closed, drains in-flight operations (readers,
// queries, commits, script runs), and then flushes and closes the durable
// resources. Once Close begins, new public API calls fail with ErrClosed;
// Close itself is idempotent. SnapshotViews pinned before Close remain
// readable — they reference only immutable in-memory state.
func (s *Session) Close() error {
	s.closeMu.Lock()
	if s.closed {
		s.closeMu.Unlock()
		return nil
	}
	s.closed = true
	s.closeMu.Unlock()
	s.inflight.Wait()
	var err error
	if s.wal != nil {
		err = s.wal.Close()
	}
	if s.replLock != nil {
		if cerr := s.replLock.Close(); err == nil {
			err = cerr
		}
		s.replLock = nil
	}
	return err
}

func toScriptValue(v any) script.Value {
	switch x := v.(type) {
	case int:
		return int64(x)
	case int32:
		return int64(x)
	case float32:
		return float64(x)
	default:
		return v
	}
}
