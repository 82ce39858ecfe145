// Replication tests: end-to-end tailing, snapshot bootstrap, checkpoint
// shipping, the follower/primary crash matrices, loud refusal on fabricated
// gaps and CRC mismatches, staleness gating, promotion, the compaction
// retention floor, and the randomized primary/replica equivalence property.
// A follower bootstrapped from a snapshot, restarted, caught up and promoted
// under the root lifecycle model's schedule is TestLifecycleModel's.
package repl

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	flor "flordb"
	"flordb/internal/record"
	"flordb/internal/relation"
	"flordb/internal/replay"
	"flordb/internal/server"
	"flordb/internal/storage"
	"flordb/internal/storage/storagetest"
)

// dump renders every base-table row of a session as strings for multiset
// comparison between primary and replica.
func dump(s *flor.Session) []string {
	snap := s.Database().SnapshotLatest()
	var out []string
	for _, name := range []string{"logs", "loops", "ts2vid", "obj_store", "args"} {
		tbl, _ := snap.Table(name)
		tbl.Scan(func(_ relation.RowID, r relation.Row) bool {
			line := tbl.Name()
			for _, v := range r {
				line += "|" + v.String()
			}
			out = append(out, line)
			return true
		})
	}
	sort.Strings(out)
	return out
}

// asOfTimestamp dumps the logs, loops, args and ts2vid rows a session
// answers AS OF TIMESTAMP wall (Unix nanoseconds), sorted.
func asOfTimestamp(t *testing.T, s *flor.Session, wall int64) []string {
	t.Helper()
	ts := time.Unix(0, wall).UTC().Format(time.RFC3339Nano)
	var out []string
	for _, tbl := range []string{"logs", "loops", "args", "ts2vid"} {
		res, err := s.SQL("SELECT * FROM " + tbl + " AS OF TIMESTAMP '" + ts + "'")
		if err != nil {
			t.Fatalf("%s AS OF TIMESTAMP %s: %v", tbl, ts, err)
		}
		for _, r := range res.Rows {
			line := tbl
			for _, v := range r {
				line += "|" + v.String()
			}
			out = append(out, line)
		}
	}
	sort.Strings(out)
	return out
}

// loggedStamps rebuilds the log at walPath into a fresh state and returns
// the epoch↔commit-wall stamps it holds.
func loggedStamps(t *testing.T, walPath string) []relation.EpochStamp {
	t.Helper()
	db := relation.NewDatabase()
	tables, err := record.CreateTables(db)
	if err != nil {
		t.Fatal(err)
	}
	st := storage.State{DB: db, Tables: tables}
	if _, err := st.Recover(walPath, true); err != nil {
		t.Fatal(err)
	}
	return db.EpochStamps()
}

func assertSame(t *testing.T, label string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: row count %d, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: row %d differs:\n got  %s\n want %s", label, i, got[i], want[i])
		}
	}
}

// primaryEnv is a writable session served over HTTP, with a swappable
// handler so tests can restart the primary without changing its URL.
type primaryEnv struct {
	t       *testing.T
	dir     string
	opts    flor.Options
	sess    *flor.Session
	prim    *Primary
	srv     *httptest.Server
	handler atomic.Value // http.Handler
}

func newPrimaryEnv(t *testing.T, opts flor.Options) *primaryEnv {
	t.Helper()
	if opts.SegmentBytes == 0 {
		opts.SegmentBytes = 1 // seal a segment at every commit
	}
	e := &primaryEnv{t: t, dir: t.TempDir(), opts: opts}
	e.open()
	e.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		e.handler.Load().(http.Handler).ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		e.srv.Close()
		e.sess.Close()
	})
	return e
}

func (e *primaryEnv) open() {
	e.t.Helper()
	sess, err := flor.Open(e.dir, "proj", e.opts)
	if err != nil {
		e.t.Fatal(err)
	}
	e.sess = sess
	prim := NewPrimary(sess)
	prim.LongPollInterval = 5 * time.Millisecond
	e.prim = prim
	e.handler.Store(prim.Routes())
}

// restart closes and reopens the primary session (recovery path), swapping
// the served handler in place so followers keep the same URL.
func (e *primaryEnv) restart() {
	e.t.Helper()
	if err := e.sess.Close(); err != nil {
		e.t.Fatal(err)
	}
	e.open()
}

func (e *primaryEnv) walPath() string {
	return filepath.Join(e.dir, ".flor", "flor.wal")
}

func (e *primaryEnv) commitN(n int) {
	e.t.Helper()
	for i := 0; i < n; i++ {
		e.sess.Log("metric", fmt.Sprintf("v%d-%d", e.sess.Tstamp(), i))
		if err := e.sess.Commit("c"); err != nil {
			e.t.Fatal(err)
		}
	}
}

func (e *primaryEnv) cfg(dir string) FollowerConfig {
	return FollowerConfig{
		PrimaryURL: e.srv.URL,
		Dir:        dir,
		ProjID:     "proj",
		PollWait:   200 * time.Millisecond,
		Backoff:    Backoff{Min: 2 * time.Millisecond, Max: 20 * time.Millisecond},
	}
}

// stepUntil drives the follower synchronously until its applied high-water
// mark reaches want (or the deadline passes).
func stepUntil(t *testing.T, f *Follower, want int64) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for f.Applied() < want {
		if err := f.step(ctx); err != nil {
			t.Fatalf("follower step (applied %d, want %d): %v", f.Applied(), want, err)
		}
		if ctx.Err() != nil {
			t.Fatalf("timed out at applied %d, want %d", f.Applied(), want)
		}
	}
}

func primarySegments(t *testing.T, e *primaryEnv) []storage.Segment {
	t.Helper()
	segs, err := storage.ListSegments(e.walPath())
	if err != nil {
		t.Fatal(err)
	}
	return segs
}

func TestFollowerTailsPrimary(t *testing.T) {
	e := newPrimaryEnv(t, flor.Options{})
	e.commitN(5)
	want := dump(e.sess)

	f, err := StartFollower(context.Background(), e.cfg(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stepUntil(t, f, 5)
	assertSame(t, "tail", dump(f.Session()), want)

	if !f.Session().ReadOnly() {
		t.Fatal("replica session should be read-only")
	}
	if err := f.Session().Commit("nope"); err != flor.ErrReadOnly {
		t.Fatalf("Commit on replica = %v, want ErrReadOnly", err)
	}
	if got := f.Session().Log("x", "y"); got != "y" {
		t.Fatalf("Log on replica should pass value through, got %v", got)
	}

	// New commits ship incrementally.
	e.commitN(3)
	stepUntil(t, f, 8)
	assertSame(t, "incremental", dump(f.Session()), dump(e.sess))

	fg := f.Session().Metrics().Snapshot().Gauges
	if fg["repl_segments_shipped"] != 8 {
		t.Fatalf("fetched %v segments, want 8", fg["repl_segments_shipped"])
	}
	if pg := e.sess.Metrics().Snapshot().Gauges; pg["repl_segments_shipped"] < 8 {
		t.Fatalf("primary shipped %v segments, want >= 8", pg["repl_segments_shipped"])
	}
	// Acks ride on manifest polls; one more poll reports applied=8 and
	// moves the retention floor.
	if _, err := f.fetchManifest(context.Background(), 0, 0); err != nil {
		t.Fatal(err)
	}
	if floor := e.prim.RetainFloor(); floor != 9 {
		t.Fatalf("retention floor = %d, want 9 (acked 8)", floor)
	}

	for _, k := range []string{"replica_lag_epochs", "replica_last_fetch_unix", "repl_segments_shipped"} {
		if _, ok := fg[k]; !ok {
			t.Fatalf("follower gauges missing %q", k)
		}
	}
	if fg["replica_lag_epochs"] != 0 {
		t.Fatalf("caught-up replica reports lag %v", fg["replica_lag_epochs"])
	}
}

func TestFollowerBootstrapsFromSnapshot(t *testing.T) {
	e := newPrimaryEnv(t, flor.Options{})
	e.commitN(4)
	if _, err := e.sess.Compact(); err != nil {
		t.Fatal(err)
	}
	e.commitN(3) // history now = snapshot(1..4) + segments 5..7
	want := dump(e.sess)

	f, err := StartFollower(context.Background(), e.cfg(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if hw := f.localHighWater(); hw < 4 {
		t.Fatalf("bootstrap installed no snapshot: high water %d", hw)
	}
	stepUntil(t, f, 7)
	assertSame(t, "snapshot bootstrap", dump(f.Session()), want)
}

// fakeSnap is a checkpointable object, so the workload emits CkptRecords,
// whose bytes ride in the WAL segments.
type fakeSnap struct{ state []byte }

func (s *fakeSnap) Snapshot() ([]byte, error) { return append([]byte(nil), s.state...), nil }
func (s *fakeSnap) Restore(b []byte) error    { s.state = append([]byte(nil), b...); return nil }

// TestFollowerShipsCheckpointBlobs: checkpoints reach the replica in the
// shipped segments alone, as the primary's obj_store rows byte for byte.
func TestFollowerShipsCheckpointBlobs(t *testing.T) {
	e := newPrimaryEnv(t, flor.Options{Policy: replay.EveryN{N: 1}})
	obj := &fakeSnap{state: []byte("weights-0")}
	ck, err := e.sess.Checkpointing(map[string]flor.Snapshotter{"model": obj})
	if err != nil {
		t.Fatal(err)
	}
	for it := e.sess.Loop("epoch", 3); it.Next(); {
		obj.state = []byte(fmt.Sprintf("weights-%d", it.Index()))
		e.sess.Log("loss", it.Index())
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.sess.Commit("trained"); err != nil {
		t.Fatal(err)
	}
	want := dump(e.sess)
	if n := e.sess.Tables().ObjStore.Len(); n == 0 {
		t.Fatal("workload produced no checkpoint rows; test is vacuous")
	}

	replica := t.TempDir()
	f, err := StartFollower(context.Background(), e.cfg(replica))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stepUntil(t, f, primarySegments(t, e)[len(primarySegments(t, e))-1].Seq)
	assertSame(t, "checkpoint blobs", dump(f.Session()), want)
	// The checkpoints rode in the segments: neither side has an objects/
	// store.
	for _, dir := range []string{e.dir, replica} {
		if _, err := os.Stat(filepath.Join(dir, ".flor", "objects")); !os.IsNotExist(err) {
			t.Fatalf("%s/.flor/objects exists (%v)", dir, err)
		}
	}
}

// TestFollowerKillMatrix kills the follower at every step a clean catch-up
// performs — with ChunkBytes 1, every byte of every segment fetch, then each
// temp reopen, fsync, rename and directory fsync — then restarts it and
// asserts the recovered replica equals the primary: the replica half of the
// crash matrix. A kill after segment N is applied is the kill at the first
// step of segment N+1; after the top segment it is the clean run.
func TestFollowerKillMatrix(t *testing.T) {
	e := newPrimaryEnv(t, flor.Options{})
	e.commitN(3)
	want := dump(e.sess)
	segs := primarySegments(t, e)
	top := segs[len(segs)-1].Seq
	ctx := context.Background()

	// catchUp starts a follower in dir writing through fsys and steps it
	// until it has applied the top segment or fails.
	catchUp := func(dir string, fsys storage.FS) error {
		cfg := e.cfg(dir)
		cfg.ChunkBytes = 1
		cfg.FS = fsys
		f, err := StartFollower(ctx, cfg)
		if err != nil {
			return err
		}
		defer f.Close()
		for f.Applied() < top {
			if err := f.step(ctx); err != nil {
				return err
			}
		}
		return nil
	}
	clean := t.TempDir()
	rec := storagetest.Recorder()
	if err := catchUp(clean, rec); err != nil {
		t.Fatal(err)
	}
	trace := rec.Trace()
	for _, sg := range segs {
		if dst := filepath.Join(clean, ".flor", filepath.Base(sg.Path)); !storagetest.Installed(trace, dst) {
			t.Fatalf("segment %d is not installed by temp fsync, rename, dir-fsync: %v", sg.Seq, trace)
		}
	}
	points := storagetest.Points(trace)
	t.Logf("replica kill matrix: %d kill points", len(points))

	for _, p := range points {
		fdir := t.TempDir()
		if err := catchUp(fdir, storagetest.Crash(p)); !errors.Is(err, storagetest.ErrKilled) {
			t.Fatalf("%v: kill did not surface: %v", p, err)
		}
		// "Restart" the follower process: recovery + resumed catch-up.
		f2, err := StartFollower(ctx, e.cfg(fdir))
		if err != nil {
			t.Fatalf("%v: restart: %v", p, err)
		}
		stepUntil(t, f2, top)
		assertSame(t, p.String(), dump(f2.Session()), want)
		f2.Close()
	}
}

// TestPrimaryKillMatrixAtSealBoundaries kills primary-side compaction at
// every step a clean one performs, grouped by the phase of the seal →
// snapshot → rename → delete sequence it falls in, restarts the primary
// through recovery, and asserts a tailing follower stays equivalent
// throughout — including across the segment deletions a completed
// compaction performs.
func TestPrimaryKillMatrixAtSealBoundaries(t *testing.T) {
	// start builds a primary with three commits and a follower caught up.
	start := func(t *testing.T) (*primaryEnv, *Follower) {
		e := newPrimaryEnv(t, flor.Options{})
		e.commitN(3)
		f, err := StartFollower(context.Background(), e.cfg(t.TempDir()))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		stepUntil(t, f, 3)
		return e, f
	}
	// compact closes the primary and runs one compaction on its directory
	// with every write going through fsys, so a kill leaves the directory
	// exactly as a primary killed mid-compaction would.
	compact := func(t *testing.T, e *primaryEnv, fsys storage.FS) error {
		if err := e.sess.Close(); err != nil {
			t.Fatal(err)
		}
		w, err := storage.OpenWAL(e.walPath(), storage.Options{FS: fsys})
		if err != nil {
			return err
		}
		_, err = (&storage.Compactor{WAL: w}).Compact()
		if cerr := w.Close(); err == nil {
			err = cerr
		}
		return err
	}
	rec := storagetest.Recorder()
	e, _ := start(t)
	if err := compact(t, e, rec); err != nil {
		t.Fatal(err)
	}
	snaps, _ := storage.ListSnapshots(e.walPath())
	if len(snaps) == 0 || !storagetest.Installed(rec.Trace(), snaps[len(snaps)-1].Path) {
		t.Fatalf("the snapshot is not installed by temp fsync, rename, dir-fsync: %v", rec.Trace())
	}
	phases := storagetest.CompactionPhases(rec.Trace())
	t.Logf("primary kill matrix: %d kill points", len(storagetest.Points(rec.Trace())))

	for _, ph := range phases {
		if len(ph.Points) == 0 {
			t.Fatalf("no kill point %s: the compaction skipped that step", ph.Name)
		}
		t.Run(ph.Name, func(t *testing.T) {
			for _, p := range ph.Points {
				t.Run(p.String(), func(t *testing.T) {
					e, f := start(t)
					if err := compact(t, e, storagetest.Crash(p)); !errors.Is(err, storagetest.ErrKilled) {
						t.Fatalf("kill did not surface: %v", err)
					}
					// Primary recovers and keeps committing; the follower
					// must stay equivalent across the crash and the retried
					// compaction. A restarted primary has lost its in-memory
					// acks, so the follower re-acks on its next poll before
					// compaction reclaims segments (RetainSegments covers
					// followers that poll less often).
					e.open()
					e.commitN(2)
					stepUntil(t, f, 5)
					if _, err := f.fetchManifest(context.Background(), 0, 0); err != nil {
						t.Fatal(err)
					}
					if _, err := e.sess.Compact(); err != nil {
						t.Fatal(err)
					}
					e.commitN(1)
					top := primarySegments(t, e)[len(primarySegments(t, e))-1].Seq
					stepUntil(t, f, top)
					assertSame(t, p.String(), dump(f.Session()), dump(e.sess))
				})
			}
		})
	}
}

// TestFollowerRefusesSegmentGap fabricates a shrunken history — a sealed
// segment deleted out from under a follower that still needs it — and
// asserts the follower faults and refuses to serve instead of replaying
// around the hole.
func TestFollowerRefusesSegmentGap(t *testing.T) {
	e := newPrimaryEnv(t, flor.Options{})
	e.commitN(1)
	f, err := StartFollower(context.Background(), e.cfg(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stepUntil(t, f, 1)

	e.commitN(2) // seals segments 2 and 3
	if err := os.Remove(storage.SegmentPath(e.walPath(), 2)); err != nil {
		t.Fatal(err)
	}

	err = f.step(context.Background())
	if err == nil {
		t.Fatal("follower accepted a history with a fabricated gap")
	}
	var fe *FaultError
	if !asFault(err, &fe) {
		t.Fatalf("gap produced %v, want a permanent FaultError", err)
	}
	if f.Gate() == nil {
		t.Fatal("faulted follower still admits reads")
	}
	assertServerRefuses(t, f)
}

// TestFollowerRefusesCRCMismatch corrupts a sealed segment in place (same
// size, different bytes) after its CRC entered the manifest, and asserts the
// follower's clean-fetch verification faults rather than applying it.
func TestFollowerRefusesCRCMismatch(t *testing.T) {
	e := newPrimaryEnv(t, flor.Options{})
	e.commitN(1)
	f, err := StartFollower(context.Background(), e.cfg(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stepUntil(t, f, 1) // primes the primary's CRC cache for segment 1

	e.commitN(1)
	segPath := storage.SegmentPath(e.walPath(), 2)
	if _, err := f.fetchManifest(context.Background(), 0, 0); err != nil {
		t.Fatal(err) // primes the CRC cache for segment 2
	}
	data, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(segPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	err = f.step(context.Background())
	var fe *FaultError
	if err == nil || !asFault(err, &fe) {
		t.Fatalf("CRC mismatch produced %v, want a permanent FaultError", err)
	}
	if f.Gate() == nil {
		t.Fatal("faulted follower still admits reads")
	}
	assertServerRefuses(t, f)
}

// TestFollowerRefusesLegacyCheckpoint: a segment holding a checkpoint line
// of a release before checkpoints rode in the log names its bytes by key in
// the primary's objects/ store, which nothing ships. The follower installs
// the segment and faults applying it, naming the key, rather than serving a
// replica without the row.
func TestFollowerRefusesLegacyCheckpoint(t *testing.T) {
	e := newPrimaryEnv(t, flor.Options{})
	if err := e.sess.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(filepath.Join(e.dir, ".flor")); err != nil {
		t.Fatal(err)
	}
	if err := os.CopyFS(e.dir, os.DirFS(filepath.Join("..", "..", "testdata", "legacy_ckpt_project"))); err != nil {
		t.Fatal(err)
	}
	e.open()
	e.commitN(1) // seals the legacy history into segment 1
	f, err := StartFollower(context.Background(), e.cfg(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	err = f.step(context.Background())
	var fe *FaultError
	if !asFault(err, &fe) || !strings.Contains(err.Error(), "installed but failed to apply") || !strings.Contains(err.Error(), "6b9e948ddf835670") {
		t.Fatalf("legacy checkpoint segment produced %v, want a FaultError naming its key", err)
	}
	if f.Gate() == nil {
		t.Fatal("faulted follower still admits reads")
	}
}

func asFault(err error, fe **FaultError) bool {
	for err != nil {
		if f, ok := err.(*FaultError); ok {
			*fe = f
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// assertServerRefuses mounts the replica behind the API server with the
// follower's gate and checks queries shed with 503 + Retry-After.
func assertServerRefuses(t *testing.T, f *Follower) {
	t.Helper()
	api := apiServer(t, f)
	resp, err := http.Get(api.URL + "/sql?q=SELECT+name+FROM+logs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("gated replica answered %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
}

func TestStalenessGateAndHealthz(t *testing.T) {
	e := newPrimaryEnv(t, flor.Options{})
	e.commitN(2)
	cfg := e.cfg(t.TempDir())
	cfg.MaxLagEpochs = 3
	cfg.MaxFetchAge = time.Hour
	f, err := StartFollower(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stepUntil(t, f, 2)
	if err := f.Gate(); err != nil {
		t.Fatalf("caught-up replica gated: %v", err)
	}

	// Push the primary far ahead without letting the follower step; one
	// manifest observation updates the lag gauge past the bound.
	e.commitN(6)
	m, err := f.fetchManifest(context.Background(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.primaryTs.Store(m.Tstamp)
	if err := f.Gate(); err == nil {
		t.Fatal("lagging replica not gated")
	}
	api := apiServer(t, f)
	resp, err := http.Get(api.URL + "/sql?q=SELECT+name+FROM+logs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("lagging replica answered %d (Retry-After %q), want 503 with Retry-After", resp.StatusCode, resp.Header.Get("Retry-After"))
	}

	// /healthz is never gated and carries the replica gauges.
	hresp, err := http.Get(api.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var h map[string]any
	if err := jsonDecode(hresp, &h); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"replica_lag_epochs", "replica_last_fetch_unix", "repl_segments_shipped"} {
		if _, ok := h[k]; !ok {
			t.Fatalf("/healthz missing %q: %v", k, h)
		}
	}

	// Catching up clears the gate.
	stepUntil(t, f, 8)
	if err := f.Gate(); err != nil {
		t.Fatalf("caught-up replica still gated: %v", err)
	}
}

// TestConcurrentReplicaReadsWhileFollowerApplies: a follower tails a primary
// over HTTP, applying one segment per commit while the primary keeps
// committing, and two readers query the replica through its staleness gate
// the whole time. A gate refusal is the only failure a reader may see; every
// read it is let through sees a consistent cut — at epoch E exactly the E
// rows the first E commits logged — and once the writer stops the replica
// catches up to a row-for-row copy of the primary.
func TestConcurrentReplicaReadsWhileFollowerApplies(t *testing.T) {
	e := newPrimaryEnv(t, flor.Options{SegmentBytes: 1})
	e.commitN(4) // one "metric" row per commit, so epoch E holds E of them
	cfg := e.cfg(t.TempDir())
	cfg.PollWait = 5 * time.Millisecond
	cfg.MaxLagEpochs = 2
	f, err := StartFollower(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runDone := make(chan error, 1)
	go func() { runDone <- f.Run(ctx) }()

	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for i := 0; i < 40; i++ {
			e.sess.Log("metric", fmt.Sprintf("w%d", i))
			if err := e.sess.Commit("c"); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	var reads, refusals atomic.Int64
	var readers sync.WaitGroup
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-writerDone:
					if reads.Load() > 0 { // else read on while the follower catches up
						return
					}
				default:
				}
				if err := f.Gate(); err != nil {
					if fault := f.Fault(); fault != nil {
						t.Errorf("follower faulted: %v", fault)
						return
					}
					refusals.Add(1) // lagging past MaxLagEpochs: a staleness refusal
					time.Sleep(100 * time.Microsecond)
					continue
				}
				v, err := f.Session().Reader()
				if err != nil {
					t.Error(err)
					return
				}
				res, err := v.SQL("SELECT count(*) AS n FROM logs WHERE value_name = 'metric'")
				epoch := v.Epoch()
				if err != nil {
					t.Error(err)
					return
				}
				if got := res.Rows[0][0].AsInt(); got != epoch {
					t.Errorf("replica read at epoch %d saw %d rows", epoch, got)
					return
				}
				reads.Add(1)
			}
		}()
	}
	<-writerDone
	readers.Wait()

	// Catch up to the primary's last sealed segment, then stop tailing.
	segs := primarySegments(t, e)
	last := segs[len(segs)-1].Seq
	deadline := time.Now().Add(20 * time.Second)
	for f.Applied() < last {
		if err := f.Fault(); err != nil {
			t.Fatalf("follower faulted during catch-up: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at segment %d of %d", f.Applied(), last)
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-runDone; err != nil {
		t.Fatalf("follower Run: %v", err)
	}
	t.Logf("%d replica reads, %d staleness refusals, %d segments applied", reads.Load(), refusals.Load(), f.Applied())
	if reads.Load() == 0 || f.Applied() == 0 {
		t.Fatalf("%d replica reads, %d segments applied: the readers or the follower never ran", reads.Load(), f.Applied())
	}
	assertSame(t, "replica after concurrent reads", dump(f.Session()), dump(e.sess))
}

func TestPromoteFlipsReplicaWritable(t *testing.T) {
	e := newPrimaryEnv(t, flor.Options{})
	e.commitN(3)
	fdir := t.TempDir()
	f, err := StartFollower(context.Background(), e.cfg(fdir))
	if err != nil {
		t.Fatal(err)
	}
	stepUntil(t, f, 3)
	wantTs := e.sess.Tstamp()

	if err := f.Promote(context.Background()); err != nil {
		t.Fatal(err)
	}
	sess := f.Session()
	if sess.ReadOnly() {
		t.Fatal("promoted session still read-only")
	}
	if sess.Tstamp() != wantTs {
		t.Fatalf("promoted at tstamp %d, want %d", sess.Tstamp(), wantTs)
	}
	sess.Log("post-promote", "yes")
	if err := sess.Commit("first write after failover"); err != nil {
		t.Fatalf("commit on promoted session: %v", err)
	}
	want := dump(sess)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// The promoted directory reopens as an ordinary writable project with
	// all replicated + new history, and refuses to re-open as a replica of
	// some other primary while it has an active tail.
	s2, err := flor.Open(fdir, "proj", flor.Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertSame(t, "promoted history", dump(s2), want)
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := flor.OpenReplica(fdir, "proj", flor.Options{}); err == nil {
		t.Fatal("OpenReplica accepted a directory with a non-empty active WAL")
	}
}

func TestPromoteRefusesKnownUnappliedHistory(t *testing.T) {
	e := newPrimaryEnv(t, flor.Options{})
	e.commitN(2)
	f, err := StartFollower(context.Background(), e.cfg(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stepUntil(t, f, 2)

	// The follower observes seal 3 but dies before fetching it; then the
	// primary becomes unreachable. Promotion must refuse: flipping now
	// would silently lose a commit the primary acked.
	e.commitN(1)
	m, err := f.fetchManifest(context.Background(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.lastSeenMax.Store(m.MaxSeq())
	e.srv.Close() // primary gone
	if err := f.Promote(context.Background()); err == nil {
		t.Fatal("promote discarded observed-but-unapplied history")
	}
	if f.Session().ReadOnly() == false {
		t.Fatal("failed promote left the session writable")
	}
}

// TestRetentionFloorProtectsSlowFollower: with a live follower acked only
// through segment 1, primary compaction must retain segments 2.. even
// though the new snapshot covers them, and the follower must then catch up
// with no gap fault.
func TestRetentionFloorProtectsSlowFollower(t *testing.T) {
	e := newPrimaryEnv(t, flor.Options{})
	e.commitN(1)
	f, err := StartFollower(context.Background(), e.cfg(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stepUntil(t, f, 1) // follower acks 1 and stalls

	e.commitN(3) // segments 2..4
	if _, err := e.sess.Compact(); err != nil {
		t.Fatal(err)
	}
	segs := primarySegments(t, e)
	if len(segs) == 0 || segs[0].Seq > 2 {
		t.Fatalf("compaction dropped segments a live follower needs: remaining %v", segs)
	}

	stepUntil(t, f, 4)
	assertSame(t, "slow follower catch-up", dump(f.Session()), dump(e.sess))

	// Once acks advance, the floor moves and compaction may reclaim.
	if _, err := f.fetchManifest(context.Background(), 0, 0); err != nil {
		t.Fatal(err)
	}
	if floor := e.prim.RetainFloor(); floor != 5 {
		t.Fatalf("retention floor = %d, want 5", floor)
	}
}

// TestRetainSegmentsKeepsCatchUpWindow: Options.RetainSegments keeps the
// newest N covered segments for followers that have not connected yet.
func TestRetainSegmentsKeepsCatchUpWindow(t *testing.T) {
	e := newPrimaryEnv(t, flor.Options{RetainSegments: 2})
	e.commitN(4)
	if _, err := e.sess.Compact(); err != nil {
		t.Fatal(err)
	}
	segs := primarySegments(t, e)
	var got []int64
	for _, sg := range segs {
		got = append(got, sg.Seq)
	}
	if len(got) != 2 || got[0] != 3 || got[1] != 4 {
		t.Fatalf("retained segments %v, want [3 4]", got)
	}
}

func TestManifestLongPollWakesOnSeal(t *testing.T) {
	e := newPrimaryEnv(t, flor.Options{})
	e.commitN(1)
	f, err := StartFollower(context.Background(), e.cfg(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stepUntil(t, f, 1)

	done := make(chan *Manifest, 1)
	go func() {
		m, err := f.fetchManifest(context.Background(), 1, 5*time.Second)
		if err != nil {
			done <- nil
			return
		}
		done <- m
	}()
	time.Sleep(50 * time.Millisecond)
	e.commitN(1)
	select {
	case m := <-done:
		if m == nil || m.MaxSeq() < 2 {
			t.Fatalf("long poll returned %+v, want a manifest with segment 2", m)
		}
	case <-time.After(4 * time.Second):
		t.Fatal("long poll did not wake on the new seal")
	}
}

func TestBackoff(t *testing.T) {
	b := Backoff{Min: 100 * time.Millisecond, Max: time.Second, Factor: 2, Jitter: 0}
	var got []time.Duration
	for i := 0; i < 6; i++ {
		got = append(got, b.Next())
	}
	want := []time.Duration{100, 200, 400, 800, 1000, 1000}
	for i := range want {
		if got[i] != want[i]*time.Millisecond {
			t.Fatalf("delay %d = %v, want %v", i, got[i], want[i]*time.Millisecond)
		}
	}
	b.Reset()
	if d := b.Next(); d != 100*time.Millisecond {
		t.Fatalf("after reset: %v, want 100ms", d)
	}

	j := Backoff{Min: 100 * time.Millisecond, Max: time.Second, Jitter: 0.5}
	for i := 0; i < 50; i++ {
		d := j.Next()
		if d < 100*time.Millisecond || d > 1500*time.Millisecond {
			t.Fatalf("jittered delay %v outside [Min, Max*1.25]", d)
		}
	}
}

// TestReplicaEqualsPrimaryProperty is the randomized equivalence property:
// random commit/compact/kill interleavings on the primary while a follower
// tails throughout (dying and restarting at random), ending in full-table
// multiset equality and agreement on the epoch, the commit stamps and the
// AS OF TIMESTAMP answer at every commit's wall stamp. Run under -race.
func TestReplicaEqualsPrimaryProperty(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			// RetainSegments keeps the catch-up window open across the
			// stretches where the restarting follower is not acking.
			e := newPrimaryEnv(t, flor.Options{RetainSegments: 256})

			fdir := t.TempDir()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			// kill joins the Run goroutine before Close: a canceled-but-live
			// follower can still install a fetched segment into fdir, and a
			// successor starting concurrently would count that segment as
			// applied (localHighWater) without its recovery having replayed
			// it — one follower per directory at a time, like the flock
			// discipline guarantees across processes.
			start := func() (*Follower, context.CancelFunc, chan struct{}) {
				fctx, fcancel := context.WithCancel(ctx)
				f, err := StartFollower(fctx, e.cfg(fdir))
				if err != nil {
					t.Fatal(err)
				}
				done := make(chan struct{})
				go func() { defer close(done); f.Run(fctx) }()
				return f, fcancel, done
			}
			f, fcancel, fdone := start()

			for op := 0; op < 40; op++ {
				switch r := rng.Intn(10); {
				case r < 6: // commit a burst
					e.commitN(1 + rng.Intn(3))
				case r < 8: // compact (seals + snapshots + prunes)
					if _, err := e.sess.Compact(); err != nil {
						t.Fatal(err)
					}
				case r < 9: // kill + restart the follower
					fcancel()
					<-fdone
					if err := f.Close(); err != nil {
						t.Fatal(err)
					}
					f, fcancel, fdone = start()
				default: // kill + recover the primary
					e.restart()
				}
			}
			// Seal the tail so every commit is shippable, then wait for the
			// follower to drain the history.
			if _, err := e.sess.Compact(); err != nil {
				t.Fatal(err)
			}
			want := dump(e.sess)
			top := int64(0)
			if segs := primarySegments(t, e); len(segs) > 0 {
				top = segs[len(segs)-1].Seq
			}
			if snaps, err := storage.ListSnapshots(e.walPath()); err == nil && len(snaps) > 0 {
				if s := snaps[len(snaps)-1].Seq; s > top {
					top = s
				}
			}
			deadline := time.Now().Add(30 * time.Second)
			for f.Applied() < top {
				if err := f.Fault(); err != nil {
					t.Fatalf("follower faulted: %v", err)
				}
				if time.Now().After(deadline) {
					t.Fatalf("follower stuck at %d, want %d", f.Applied(), top)
				}
				time.Sleep(10 * time.Millisecond)
			}
			fcancel()
			<-fdone
			got := dump(f.Session())
			assertSame(t, fmt.Sprintf("seed %d", seed), got, want)
			prim, rep := e.sess, f.Session()
			if pe, re := prim.Database().Epoch(), rep.Database().Epoch(); pe != re {
				t.Fatalf("seed %d: replica epoch %d, primary %d", seed, re, pe)
			}
			stamps := prim.Database().EpochStamps()
			if int64(len(stamps)) != prim.Database().Epoch() {
				t.Fatalf("seed %d: the primary holds %d commit stamps, its epoch is %d", seed, len(stamps), prim.Database().Epoch())
			}
			// One clock: the replica and the primary's own log hold exactly
			// the stamps the live primary published.
			if got := fmt.Sprint(rep.Database().EpochStamps()); got != fmt.Sprint(stamps) {
				t.Fatalf("seed %d: replica stamps %s, primary %v", seed, got, stamps)
			}
			if got := fmt.Sprint(loggedStamps(t, e.walPath())); got != fmt.Sprint(stamps) {
				t.Fatalf("seed %d: the primary's log rebuilds stamps %s, live %v", seed, got, stamps)
			}
			for _, st := range stamps {
				assertSame(t, fmt.Sprintf("seed %d AS OF TIMESTAMP of commit %d", seed, st.Epoch),
					asOfTimestamp(t, rep, st.Wall), asOfTimestamp(t, prim, st.Wall))
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// apiServer mounts the replica session behind the HTTP API with the
// follower's gate, as `flordb serve --replicate-from` does.
func apiServer(t *testing.T, f *Follower) *httptest.Server {
	t.Helper()
	api := server.New(f.Session(), server.Config{Gate: f.Gate})
	srv := httptest.NewServer(api)
	t.Cleanup(srv.Close)
	return srv
}

func jsonDecode(resp *http.Response, v any) error {
	return json.NewDecoder(resp.Body).Decode(v)
}
