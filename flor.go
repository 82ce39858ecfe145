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

// ErrEpochRetired is returned by time-travel reads (ReaderAt, AS OF) that
// target an epoch below the retention floor set by the epoch-retention GC.
// The concrete error is a *relation.EpochRetiredError carrying the floor.
var ErrEpochRetired = relation.ErrEpochRetired

// Session is one FlorDB project handle: a shared engine owning the metadata
// database, the WAL, the checkpoint blob store, and the version-control
// repository. Methods are safe for concurrent use unless noted.
//
// The read and write paths are decoupled: queries (SQL, Explain, Dataframe,
// Reader) run against pinned MVCC snapshots of the relational kernel and
// never block — or are blocked by — concurrent logging; commits group-commit
// in the WAL, so concurrent committers coalesce into a single fsync.
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
	blobs     *storage.BlobStore
	repo      *vcs.Repo
	tstamp    int64
	recorder  *replay.Recorder
	snapEvery int               // auto-compact every N commits (0 = never)
	sinceSnap int               // commits since the last auto-compaction
	retainSeg int               // sealed segments compaction always keeps (Options.RetainSegments)
	ackFloor  func() int64      // replication retention floor fed to the compactor
	retainEp  int               // epochs GCEpochs keeps below the committed epoch (0 = retain all)
	epAck     func() int64      // lowest follower-applied epoch, fed to GCEpochs by internal/repl
	workspace map[string]string // filename -> contents staged for commit
	hosts     map[string]script.HostFunc
	cliArgs   map[string]string
	rootTgt   string
	stdout    io.Writer
	plans     *sqlparse.PlanCache
	epochs    *storage.EpochIndex // epoch↔commit-timestamp map for AS OF TIMESTAMP
	gcRows    atomic.Int64        // row versions reclaimed by GCEpochs since open
	scanWkrs  int                 // Options.ScanWorkers (0 = GOMAXPROCS)
	reg       *metrics.Registry   // the one telemetry registry; every layer registers into it

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

// Options configures session opening.
type Options struct {
	// Args carries command-line overrides consumed by flor.arg.
	Args map[string]string
	// Policy selects the checkpointing policy (nil = adaptive 5%).
	Policy replay.CheckpointPolicy
	// NoSync disables WAL fsync (benchmarks).
	NoSync bool
	// SegmentBytes rotates flor.wal into sealed, numbered segments once the
	// active file reaches this size at a commit boundary. 0 applies the
	// default (storage.DefaultSegmentBytes); negative disables rotation.
	// Sealed segments are what compaction folds into snapshots and deletes.
	SegmentBytes int64
	// SnapshotEvery compacts automatically every N commits, keeping startup
	// O(live data) without explicit Session.Compact calls. Each compaction
	// cycle costs O(live data + delta) and runs synchronously inside the
	// triggering Commit, so size N to amortize it. 0 disables
	// auto-compaction.
	SnapshotEvery int
	// RetainSegments keeps the newest N sealed WAL segments on disk across
	// compactions even once a snapshot covers them, so read replicas that
	// connect late can still catch up over segments instead of forcing a
	// full snapshot re-seed. Replication additionally pins segments that a
	// live follower has not yet acked (Session.SetRetainFloor). 0 retains
	// nothing beyond the ack floor.
	RetainSegments int
	// RetainEpochs bounds time-travel history: Session.GCEpochs retires
	// epochs more than RetainEpochs commits behind the committed epoch
	// (clamped to live snapshot pins and follower acks), reclaiming row
	// versions no retained epoch can see. 0 retains every epoch forever —
	// GCEpochs is then a no-op.
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
	blobs, err := storage.NewBlobStore(filepath.Join(florDir, "objects"))
	if err != nil {
		return nil, err
	}
	repo, err := vcs.Load(filepath.Join(florDir, "repo.json"))
	if err != nil {
		return nil, err
	}
	s, err := newSession(projid, dir, wal, walPath, false, blobs, repo, opts)
	if err != nil {
		wal.Close() // releases the project lock
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

// OpenMemory creates an ephemeral in-memory session (no WAL, no blob files);
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
		retainEp:  opts.RetainEpochs,
		workspace: make(map[string]string),
		hosts:     make(map[string]script.HostFunc),
		cliArgs:   opts.Args,
		stdout:    opts.Stdout,
		plans:     sqlparse.NewPlanCache(0),
		epochs:    storage.NewEpochIndex(),
		scanWkrs:  opts.ScanWorkers,
		reg:       metrics.NewRegistry(),
	}
	repo.SetNoSync(opts.NoSync)
	if blobs != nil {
		blobs.SetNoSync(opts.NoSync)
	}
	db.RegisterMetrics(s.reg)
	wal.RegisterMetrics(s.reg)
	s.plans.RegisterMetrics(s.reg)
	s.reg.IntGauge("gc_rows_reclaimed", s.gcRows.Load)
	s.reg.IntGauge("scan_workers", func() int64 { return int64(sqlparse.EffectiveScanWorkers(s.scanWkrs)) })
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

	ctx := &replay.Context{
		ProjID: projid, Filename: "main", Tstamp: s.tstamp,
		Tables: tables, WAL: wal, Blobs: blobs,
	}
	ckpt := replay.NewCheckpointManager(opts.Policy)
	s.recorder = replay.NewRecorder(ctx, ckpt)
	s.recorder.Args = opts.Args
	s.recorder.SetCtxCounter(replay.MaxCtxID(tables))
	s.recorder.OnCommit = func() error { return s.Commit("") }
	return s, nil
}

// recover rebuilds the tables from the newest valid snapshot plus the WAL
// tail (storage.RecoverTables): ts2vid rows come from commit records,
// obj_store blobs from checkpoint records + blob store. Recovery is strict —
// only records covered by a commit are visible (§2.1) — and the uncommitted
// or torn tail of the active WAL file is truncated so a later commit cannot
// resurrect records that were never durable.
func (s *Session) recover() (int64, error) {
	hooks := storage.RecoverHooks{
		AfterSnapshot: func(meta record.SnapshotMeta) {
			s.db.SetEpoch(meta.Epoch)
			s.db.SetMinEpoch(meta.MinEpoch)
			s.epochs.Load(meta.Epochs)
		},
		OnCommit: func(rec *record.CommitRecord) {
			s.epochs.Note(s.db.AdvanceEpoch(), rec.Wall)
		},
	}
	res, err := storage.RecoverTables(s.walPath, s.tables, s.blobs, s.rootTgt, true, hooks)
	if err != nil {
		return 0, err
	}
	// A GC run may have raised the retention floor after the newest snapshot
	// was written; the manifest is the durable record of that decision, so
	// the recovered session keeps refusing AS OF below it even though the
	// replayed row versions are back in memory until the next compaction.
	retention, err := storage.ReadRetention(s.walPath)
	if err != nil {
		return 0, err
	}
	s.db.SetMinEpoch(retention.MinEpoch)
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
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recorder.Ctx.Filename = name
}

// ---------- Native Go API (§2.1) ----------

// Log records a named value and returns it (flor.log). On a closed or
// read-only session the value passes through unrecorded.
func (s *Session) Log(name string, v any) any {
	if s.begin() != nil {
		return v
	}
	defer s.end()
	if s.readOnly.Load() {
		return v
	}
	out, err := s.recorder.Log(name, toScriptValue(v))
	if err != nil {
		return v
	}
	return out
}

// ArgInt resolves an integer hyperparameter (flor.arg). Read-only sessions
// resolve to the default without recording.
func (s *Session) ArgInt(name string, def int64) int64 {
	if s.readOnly.Load() {
		return def
	}
	v, err := s.recorder.Arg(name, def)
	if err != nil {
		return def
	}
	return v.(int64)
}

// ArgFloat resolves a float hyperparameter (flor.arg).
func (s *Session) ArgFloat(name string, def float64) float64 {
	if s.readOnly.Load() {
		return def
	}
	v, err := s.recorder.Arg(name, def)
	if err != nil {
		return def
	}
	return v.(float64)
}

// ArgString resolves a string hyperparameter (flor.arg).
func (s *Session) ArgString(name, def string) string {
	if s.readOnly.Load() {
		return def
	}
	v, err := s.recorder.Arg(name, def)
	if err != nil {
		return def
	}
	return v.(string)
}

// LoopIter drives one flor.loop from native Go code.
type LoopIter struct {
	sess    *replay.Recorder
	session script.LoopSession
	n       int
	i       int
	started bool
	err     error
	vals    []script.Value // non-nil for LoopVals loops
}

// Loop begins a named loop over n iterations (flor.loop). Iterate with
// Next/Index; the loop closes itself when Next returns false.
func (s *Session) Loop(name string, n int) *LoopIter {
	if err := s.begin(); err != nil {
		return &LoopIter{n: n, i: -1, err: err}
	}
	defer s.end()
	if s.readOnly.Load() {
		return &LoopIter{n: n, i: -1, err: ErrReadOnly}
	}
	vals := make([]script.Value, n)
	for i := range vals {
		vals[i] = int64(i)
	}
	ls, err := s.recorder.LoopBegin(name, vals)
	return &LoopIter{sess: s.recorder, session: ls, n: n, i: -1, err: err}
}

// LoopVals begins a named loop over explicit values (e.g. document names).
func (s *Session) LoopVals(name string, vals []string) *LoopIter {
	if err := s.begin(); err != nil {
		return &LoopIter{n: len(vals), i: -1, err: err}
	}
	defer s.end()
	if s.readOnly.Load() {
		return &LoopIter{n: len(vals), i: -1, err: ErrReadOnly}
	}
	sv := make([]script.Value, len(vals))
	for i, v := range vals {
		sv[i] = v
	}
	ls, err := s.recorder.LoopBegin(name, sv)
	return &LoopIter{sess: s.recorder, session: ls, n: len(vals), i: -1, err: err,
		vals: sv}
}

// Next advances the loop; it returns false at the end (and finalizes the
// loop context).
func (it *LoopIter) Next() bool {
	if it.err != nil {
		return false
	}
	if it.started {
		if err := it.session.PostIter(it.i, it.val()); err != nil {
			it.err = err
			return false
		}
	}
	it.i++
	if it.i >= it.n {
		it.err = it.session.End()
		return false
	}
	run, err := it.session.Decide(it.i, it.val())
	if err != nil {
		it.err = err
		return false
	}
	it.started = true
	_ = run // recording always runs
	return true
}

// vals is non-nil for LoopVals loops.
func (it *LoopIter) val() script.Value {
	if it.vals != nil {
		return it.vals[it.i]
	}
	return int64(it.i)
}

// Index returns the current iteration index.
func (it *LoopIter) Index() int { return it.i }

// Err reports any error the loop hit.
func (it *LoopIter) Err() error { return it.err }

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
// FlorDB's automatic version control of executed code.
func (s *Session) StageFile(name, contents string) {
	if s.readOnly.Load() {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.workspace[name] = contents
}

// Commit is flor.commit(): it snapshots the staged workspace into the
// version store, writes the ts2vid row, appends a durable commit record,
// increments the logical timestamp, and publishes the epoch so committed
// snapshots see the transaction (§2.1).
//
// All disk work happens outside the session mutex, journal first: the
// version is fsynced into repo.json strictly before the WAL commit record
// that names it, so a durable ts2vid row always resolves (DESIGN §7,
// invariant 5). Concurrent committers coalesce into one journal append and
// one group-commit WAL fsync instead of queueing a disk flush each, and
// loggers on other goroutines are never stalled behind a commit's disk wait.
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
		if _, err := s.tables.Ts2vid.Insert(relation.Row{
			relation.Text(s.ProjID), relation.Int(s.tstamp), relation.Int(s.tstamp),
			relation.Text(vid), relation.Text(s.rootTgt),
		}); err != nil {
			s.mu.Unlock()
			return err
		}
	}
	var rec *record.CommitRecord
	if s.wal != nil {
		rec = &record.CommitRecord{
			Kind: record.KindCommit, ProjID: s.ProjID, Tstamp: s.tstamp,
			VID: vid, Wall: time.Now().UTC(),
		}
	}
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
	if rec != nil {
		// Group commit: append under the WAL's short lock, then ride a
		// shared fsync with any other committers in flight.
		if err := s.wal.AppendCommit(rec); err != nil {
			return err
		}
	}
	// Publish the commit boundary: rows logged before this point become
	// visible to committed-epoch snapshots taken from now on. The epoch's
	// commit wall clock feeds AS OF TIMESTAMP resolution; it uses the WAL
	// record's stamp so replay reconstructs the same map.
	wall := time.Now().UTC()
	if rec != nil {
		wall = rec.Wall
	}
	s.epochs.Note(s.db.AdvanceEpoch(), wall)

	if s.wal != nil && s.snapEvery > 0 {
		s.mu.Lock()
		s.sinceSnap++
		if s.sinceSnap >= s.snapEvery {
			// Compaction is an optimization, not part of commit durability:
			// the commit record is already fsynced, so a failed compaction
			// must not make a successful Commit report an error (a caller
			// retrying the "failed" transaction would duplicate it). The
			// counter resets only when a snapshot actually covers history —
			// an error, or a no-op because a concurrent append kept the WAL
			// tail unsealable, retries at the next commit; a persistent
			// failure surfaces through explicit Compact calls.
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

func (s *Session) compactLocked() (storage.CompactStats, error) {
	if s.wal == nil {
		return storage.CompactStats{}, fmt.Errorf("flor: in-memory session has no WAL to compact")
	}
	c := &storage.Compactor{
		WAL: s.wal, Blobs: s.blobs, RootTarget: s.rootTgt,
		RetainSegments: s.retainSeg, RetainFloor: s.ackFloor,
	}
	return c.Compact()
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

// SetEpochAckFloor installs the replication epoch floor: a function returning
// the lowest committed epoch a live follower has applied (math.MaxInt64 for
// "no constraint"). GCEpochs clamps its retention floor to it, so the primary
// never retires history a replica is still serving time-travel reads from.
// internal/repl's primary installs this from its follower ack tracking.
func (s *Session) SetEpochAckFloor(fn func() int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.epAck = fn
}

// GCStats reports what one epoch-retention GC cycle did.
type GCStats struct {
	// Floor is the retention floor after the cycle: the lowest epoch
	// time-travel reads may still target.
	Floor int64
	// RowsReclaimed counts row versions whose payload was dropped — versions
	// both born and tombstoned below the floor, invisible at every retained
	// epoch.
	RowsReclaimed int
}

// GCEpochs runs one epoch-retention GC cycle. The retention floor is
// committed epoch − Options.RetainEpochs, clamped down to the oldest live
// snapshot pin and the oldest follower-applied epoch (SetEpochAckFloor), and
// never below the previous floor. Row versions tombstoned at or below the
// floor are reclaimed in memory immediately; the floor is persisted in the
// storage retention manifest so the next compaction folds them out of the
// durable snapshot and a restarted session keeps refusing AS OF below it.
// With Options.RetainEpochs zero the call is a no-op.
func (s *Session) GCEpochs() (GCStats, error) {
	if err := s.begin(); err != nil {
		return GCStats{}, err
	}
	defer s.end()
	if s.readOnly.Load() {
		return GCStats{}, ErrReadOnly
	}
	s.mu.Lock()
	retain := s.retainEp
	epAck := s.epAck
	s.mu.Unlock()
	if retain <= 0 {
		return GCStats{Floor: s.db.MinEpoch()}, nil
	}
	floor := s.db.Epoch() - int64(retain)
	if epAck != nil {
		if f := epAck(); f < floor {
			floor = f
		}
	}
	if floor <= 0 {
		return GCStats{Floor: s.db.MinEpoch()}, nil
	}
	reclaimed, applied := s.db.GCBelow(floor)
	s.gcRows.Add(int64(reclaimed))
	s.epochs.TrimBelow(applied)
	if s.walPath != "" {
		if err := storage.WriteRetention(s.walPath, storage.RetentionManifest{MinEpoch: applied}); err != nil {
			return GCStats{Floor: applied, RowsReclaimed: reclaimed}, err
		}
	}
	return GCStats{Floor: applied, RowsReclaimed: reclaimed}, nil
}

// RetentionFloor returns the current epoch retention floor: the lowest epoch
// ReaderAt and AS OF may target.
func (s *Session) RetentionFloor() int64 { return s.db.MinEpoch() }

// GCRowsReclaimed returns the total row versions reclaimed by GCEpochs since
// the session opened.
func (s *Session) GCRowsReclaimed() int64 { return s.gcRows.Load() }

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
	var maxTs int64
	path := storage.SegmentPath(s.walPath, seq)
	err := storage.ReplaySealedSegment(path, func(rec any) error {
		ts, err := storage.ApplyRecovered(rec, s.tables, s.blobs, s.rootTgt)
		if err != nil {
			return err
		}
		if ts > maxTs {
			maxTs = ts
		}
		if cr, isCommit := rec.(*record.CommitRecord); isCommit {
			s.epochs.Note(s.db.AdvanceEpoch(), cr.Wall)
		}
		return nil
	})
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
	return s.makeView((*relation.Database).Snapshot)
}

// LatestReader pins a view at the in-flight write epoch: committed state
// plus the session's own uncommitted rows. It preserves read-your-writes
// for the recording process itself (a training loop inspecting metrics it
// just logged); serving paths should prefer Reader.
func (s *Session) LatestReader() (*SnapshotView, error) {
	return s.makeView((*relation.Database).SnapshotLatest)
}

func (s *Session) makeView(pin func(*relation.Database) *relation.Snapshot) (*SnapshotView, error) {
	if err := s.begin(); err != nil {
		return nil, err
	}
	defer s.end()
	snap := pin(s.db)
	view, err := s.tables.At(snap)
	if err != nil {
		snap.Release()
		return nil, err
	}
	return &SnapshotView{sess: s, snap: snap, view: view}, nil
}

// ReaderAt pins a read-only view at a historical committed epoch — the
// time-travel analog of Reader. Epoch e sees exactly the first e commits of
// the project's history, on the primary, on any replica, and across restarts
// and compactions (epochs count commit records since project birth). Future
// epochs are refused outright; epochs below the retention floor fail with
// ErrEpochRetired, carrying the floor in a *relation.EpochRetiredError.
// Close the view when done: the pin blocks the epoch-retention GC from
// retiring the pinned epoch.
func (s *Session) ReaderAt(epoch int64) (*SnapshotView, error) {
	if err := s.begin(); err != nil {
		return nil, err
	}
	defer s.end()
	snap, err := s.db.SnapshotAt(epoch)
	if err != nil {
		return nil, err
	}
	view, err := s.tables.At(snap)
	if err != nil {
		snap.Release()
		return nil, err
	}
	return &SnapshotView{sess: s, snap: snap, view: view}, nil
}

// Epoch returns the committed epoch the view is pinned at.
func (v *SnapshotView) Epoch() int64 { return v.snap.Epoch() }

// Close releases the view's snapshot pin (it implements io.Closer and
// always returns nil). Closing is idempotent and nil-safe, and the
// view's data stays readable afterwards — the pin only feeds retention
// accounting (the /healthz snapshot_pins gauge, and the epoch-retention
// GC's notion of which epochs are still covered). Every code path that
// pins a view must Close it; the snapshotrelease analyzer enforces this
// at build time.
func (v *SnapshotView) Close() error {
	if v != nil {
		v.snap.Release()
	}
	return nil
}

// SQL runs a SQL query against the pinned state. Repeated query texts hit
// the session's LRU plan cache. An `AS OF <epoch>` clause rebases the query
// at the historical epoch (failing with ErrEpochRetired below the retention
// floor); `AS OF TIMESTAMP '<ts>'` first resolves the timestamp to the
// greatest epoch committed at or before it via the session's persisted
// epoch↔timestamp map.
func (v *SnapshotView) SQL(query string) (*sqlparse.Result, error) {
	stmt, err := v.sess.plans.Parse(query)
	if err != nil {
		return nil, err
	}
	return sqlparse.ExecuteOptions(v.snap, v.resolveAsOf(stmt), v.sess.execOptions())
}

// execOptions resolves the session's execution tuning.
func (s *Session) execOptions() sqlparse.ExecOptions {
	return sqlparse.ExecOptions{ScanWorkers: s.scanWkrs}
}

// resolveAsOf rewrites an AS OF TIMESTAMP statement into epoch form using the
// session's epoch↔timestamp map. Cached statements are immutable, so the
// rewrite is a shallow copy. Timestamps before every retained commit resolve
// to epoch 0 (the empty database) when nothing was retired, and to a retired
// epoch — which the executor then refuses with ErrEpochRetired — when the GC
// has trimmed history from under the timestamp.
func (v *SnapshotView) resolveAsOf(stmt *sqlparse.SelectStmt) *sqlparse.SelectStmt {
	if stmt.AsOf == nil || !stmt.AsOf.ByTime {
		return stmt
	}
	epoch, ok := v.sess.epochs.Resolve(stmt.AsOf.Time)
	if !ok {
		if floor := v.sess.db.MinEpoch(); floor > 0 {
			epoch = floor - 1
		}
	}
	if pinned := v.snap.Epoch(); epoch > pinned {
		// Commits after this view was pinned cannot be visible through it.
		epoch = pinned
	}
	clone := *stmt
	clone.AsOf = &sqlparse.AsOfClause{Epoch: epoch}
	return &clone
}

// Explain returns the plan the planner chooses for the query against the
// pinned state.
func (v *SnapshotView) Explain(query string) (string, error) {
	stmt, err := v.sess.plans.Parse(query)
	if err != nil {
		return "", err
	}
	stmt = v.resolveAsOf(stmt)
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
	defer v.Close()
	return v.Dataframe(names...)
}

// DataframeAt pivots restricted to one file and/or version.
func (s *Session) DataframeAt(filename string, tstamp int64, names ...string) (*Dataframe, error) {
	v, err := s.LatestReader()
	if err != nil {
		return nil, err
	}
	defer v.Close()
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
	defer v.Close()
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
	defer v.Close()
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

// WALSyncCount reports how many fsyncs the session's WAL has performed
// (0 for in-memory sessions) — group-commit observability: under N
// concurrent committers it should grow by ~1 per coalesced batch.
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
	s.mu.Lock()
	prevFile := s.recorder.Ctx.Filename
	s.recorder.Ctx.Filename = filename
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

	s.mu.Lock()
	s.recorder.Ctx.Filename = prevFile
	s.mu.Unlock()
	return runErr
}

// ---------- Multiversion hindsight logging ----------

// HindsightReport summarizes one version's backfill.
type HindsightReport = replay.VersionReport

// Hindsight performs the paper's §2 "magic trick" for a script file: the
// new source's added log statements are propagated into every committed
// version of the file and replayed incrementally (from checkpoints, in
// parallel) to materialize the new metadata retroactively. targets
// optionally restricts which checkpoint-loop iterations are materialized.
// Hindsight should not run concurrently with active recording: backfilled
// records interleave with live ones, and the durability marker appended
// when the WAL tail was clean at the start would also cover records logged
// mid-backfill.
func (s *Session) Hindsight(filename, newSrc string, targets []int) ([]HindsightReport, error) {
	if err := s.begin(); err != nil {
		return nil, err
	}
	defer s.end()
	if s.readOnly.Load() {
		return nil, ErrReadOnly
	}
	versions, err := replay.HistoricalVersions(s.repo, s.tables, s.ProjID, filename)
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
		Repo: s.repo, Tables: s.tables, WAL: s.wal, Blobs: s.blobs,
		ProjID: s.ProjID,
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
	if err == nil && s.wal != nil && tailWasCommitted {
		// Tstamp s.tstamp-1 keeps the recovered version counter equal to the
		// live one (commit markers do not open a new version). s.mu only
		// guards the tstamp read: the fsync inside AppendCommit happens
		// after the unlock, per the group-commit ordering rule (DESIGN §8)
		// that lockfsync enforces.
		s.mu.Lock()
		mark := &record.CommitRecord{
			Kind: record.KindCommit, ProjID: s.ProjID,
			Tstamp: s.tstamp - 1, Wall: time.Now().UTC(),
		}
		s.mu.Unlock()
		if werr := s.wal.AppendCommit(mark); werr != nil {
			return reports, werr
		}
		// The marker is a commit boundary: publish the backfilled rows to
		// committed-epoch snapshot readers as well.
		s.epochs.Note(s.db.AdvanceEpoch(), mark.Wall)
	}
	return reports, err
}

// Versions lists the committed versions of a file, oldest first.
func (s *Session) Versions(filename string) ([]replay.VersionJob, error) {
	return replay.HistoricalVersions(s.repo, s.tables, s.ProjID, filename)
}

// LoggedNamesAcrossVersions returns, per version timestamp, the set of value
// names logged — useful for seeing which versions are missing which metadata.
func (s *Session) LoggedNamesAcrossVersions() map[int64][]string {
	byTs := make(map[int64]map[string]bool)
	s.tables.Logs.Scan(func(_ relation.RowID, r relation.Row) bool {
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
