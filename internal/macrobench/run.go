package macrobench

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	flor "flordb"
	"flordb/internal/metrics"
	"flordb/internal/relation"
	"flordb/internal/repl"
	"flordb/internal/server"
	"flordb/internal/storage"
)

// Config tunes one scenario run.
type Config struct {
	// Duration bounds the measured window (default 10s). The seed phase and
	// replica catch-up run before the clock starts.
	Duration time.Duration
	// Seed makes worker op sequences reproducible: worker i of a run uses
	// rand.NewSource(Seed + i). Zero means seed 1, so the default is
	// deterministic, not time-derived.
	Seed int64
	// Dir hosts the scenario's scratch project directory; "" uses the OS
	// temp dir. The directory created inside is removed when Run returns.
	Dir string
	// Logf receives progress lines (nil = silent).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Duration <= 0 {
		c.Duration = 10 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Op class names. Scenario reports and benchdiff key on these.
const (
	ClassLogCommit   = "log-commit"
	ClassPointRead   = "point-read"
	ClassScanAgg     = "scan-agg"
	ClassAsOfRead    = "asof-read"
	ClassHTTPRead    = "http-read"
	ClassReplicaRead = "replica-read"
)

// valueNames is the logged-name fan-out: writers and the seed phase cycle
// value names m0..m7, and point readers pick among the same set, so the
// projid+value_name index and the plan cache both see a small hot key set.
const valueNames = 8

func valueName(k int) string { return fmt.Sprintf("m%d", k%valueNames) }

const projID = "macro"

// errShed classifies an intentional rejection (admission, staleness gate,
// retired epoch) — counted separately from errors and excluded from latency.
var errShed = errors.New("macrobench: shed")

// worker is one load-generating goroutine: an op class, a private seeded
// RNG, a private latency histogram (merged per class after the run — the
// measured loop shares no histogram atomics with other workers), and a live
// mirror histogram in the session's registry for /metrics observers.
type worker struct {
	class string
	rng   *rand.Rand
	hist  *metrics.Histogram
	live  *metrics.Histogram
	sheds *metrics.Counter
	fails *metrics.Counter

	ops, shedCount, errCount int64
	lastErr                  error

	op func(w *worker) error
}

// run loops the worker's op until the deadline.
func (w *worker) run(deadline time.Time) {
	for time.Now().Before(deadline) {
		start := time.Now()
		err := w.op(w)
		switch {
		case err == nil:
			ns := time.Since(start).Nanoseconds()
			w.hist.Observe(ns)
			w.live.Observe(ns)
			w.ops++
		case errors.Is(err, errShed):
			w.shedCount++
			w.sheds.Inc()
			// Back off briefly instead of busy-spinning on an overloaded
			// admission gate or a lagging follower: a real client retries
			// after a 429, and an unthrottled retry loop would burn CPU
			// the measured classes need.
			time.Sleep(200 * time.Microsecond)
		default:
			w.errCount++
			w.fails.Inc()
			w.lastErr = err
		}
	}
}

// Run executes the scenario for cfg.Duration and reports per-class latency,
// throughput, shed/error counts, and engine resource deltas.
func (sc Scenario) Run(cfg Config) (*Result, error) {
	res, _, err := sc.run(cfg)
	return res, err
}

// run is Run plus the session registry's snapshot at the end of the measured
// window — the document /metrics would have served at that moment.
func (sc Scenario) run(cfg Config) (*Result, *metrics.RegistrySnapshot, error) {
	cfg = cfg.withDefaults()
	dir, err := os.MkdirTemp(cfg.Dir, "macro-"+sc.Name+"-*")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)

	sess, err := flor.Open(dir, projID, flor.Options{
		NoSync:        sc.NoSync,
		SegmentBytes:  sc.SegmentBytes,
		SnapshotEvery: sc.SnapshotEvery,
		RetainEpochs:  sc.RetainEpochs,
	})
	if err != nil {
		return nil, nil, err
	}
	defer sess.Close()
	sess.SetFilename("macro.go")

	cfg.Logf("macrobench %s: seeding %d commits x %d logs", sc.Name, sc.SeedCommits, sc.SeedLogsPerCommit)
	seedRng := rand.New(rand.NewSource(cfg.Seed))
	for c := 0; c < sc.SeedCommits; c++ {
		logBatch(sess, seedRng, sc.SeedLogsPerCommit)
		if err := sess.Commit(""); err != nil {
			return nil, nil, fmt.Errorf("macrobench: seed commit: %w", err)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// HTTP readers drive the real API server in-process (no sockets: the
	// measured latency is the server's, not the loopback's); its route
	// histograms and the macro class mirrors live side by side in the
	// session's registry.
	var api *server.Server
	if sc.HTTPReaders > 0 {
		api = server.New(sess, server.Config{
			MaxInFlight: sc.MaxInFlight,
			MaxQueue:    sc.MaxQueue,
		})
	}

	// Replica readers query a real follower tailing the primary over HTTP.
	var follower *repl.Follower
	if sc.ReplicaReaders > 0 {
		blobs, err := storage.NewBlobStore(dir + "/.flor/objects")
		if err != nil {
			return nil, nil, err
		}
		prim := repl.NewPrimary(sess, blobs)
		primSrv := httptest.NewServer(prim.Routes())
		defer primSrv.Close()
		folDir, err := os.MkdirTemp(cfg.Dir, "macro-follower-*")
		if err != nil {
			return nil, nil, err
		}
		defer os.RemoveAll(folDir)
		follower, err = repl.StartFollower(ctx, repl.FollowerConfig{
			PrimaryURL:   primSrv.URL,
			Dir:          folDir,
			ProjID:       projID,
			PollWait:     5 * time.Millisecond,
			MaxLagEpochs: 64,
			Open:         flor.Options{NoSync: true},
		})
		if err != nil {
			return nil, nil, fmt.Errorf("macrobench: start follower: %w", err)
		}
		defer follower.Close()
		followerDone := make(chan struct{})
		go func() { follower.Run(ctx); close(followerDone) }()
		defer func() { cancel(); <-followerDone }()
		// Catch up over the seeded history before the clock starts, so
		// replica reads measure steady-state tailing, not bootstrap.
		catchup := time.Now().Add(30 * time.Second)
		for follower.Applied() < int64(sc.SeedCommits) {
			if err := follower.Fault(); err != nil {
				return nil, nil, fmt.Errorf("macrobench: follower fault during catch-up: %w", err)
			}
			if time.Now().After(catchup) {
				return nil, nil, fmt.Errorf("macrobench: follower stuck at segment %d during catch-up", follower.Applied())
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Background maintenance: compaction and epoch GC on their own tickers,
	// like an operator cron would run them.
	var compactRuns, gcRuns atomic.Int64
	var maint sync.WaitGroup
	startTicker := func(every time.Duration, tick func()) {
		if every <= 0 {
			return
		}
		maint.Add(1)
		go func() {
			defer maint.Done()
			t := time.NewTicker(every)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					tick()
				}
			}
		}()
	}
	startTicker(sc.CompactEvery, func() {
		if _, err := sess.Compact(); err == nil {
			compactRuns.Add(1)
		}
	})
	startTicker(sc.GCEvery, func() {
		if _, err := sess.GCEpochs(); err == nil {
			gcRuns.Add(1)
		}
	})

	workers := sc.buildWorkers(cfg, sess, api, follower)

	// Resource baseline, then the measured window.
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	before := sess.Metrics().Snapshot().Gauges

	cfg.Logf("macrobench %s: running %d workers for %s", sc.Name, len(workers), cfg.Duration)
	started := time.Now()
	deadline := started.Add(cfg.Duration)
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			w.run(deadline)
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(started)
	cancel()
	maint.Wait()

	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	snap := sess.Metrics().Snapshot()
	after := snap.Gauges
	delta := func(name string) int64 { return int64(after[name] - before[name]) }

	res := &Result{
		Scenario:   sc.Name,
		Seed:       cfg.Seed,
		DurationNs: elapsed.Nanoseconds(),
		Classes:    make(map[string]*ClassResult),
	}
	for _, w := range workers {
		c := res.Classes[w.class]
		if c == nil {
			c = &ClassResult{Latency: &metrics.HistSnapshot{}}
			res.Classes[w.class] = c
		}
		c.Ops += w.ops
		c.Sheds += w.shedCount
		c.Errors += w.errCount
		c.Latency.Merge(w.hist.Snapshot())
		res.TotalOps += w.ops
		if w.lastErr != nil {
			cfg.Logf("macrobench %s: %s worker saw %d errors, last: %v", sc.Name, w.class, w.errCount, w.lastErr)
		}
	}
	secs := elapsed.Seconds()
	for _, c := range res.Classes {
		c.OpsPerSec = float64(c.Ops) / secs
	}

	r := &res.Resources
	if res.TotalOps > 0 {
		r.AllocsPerOp = float64(m1.Mallocs-m0.Mallocs) / float64(res.TotalOps)
	}
	r.WALSyncs = delta("wal_syncs")
	r.WALCommits = delta("wal_commits")
	if r.WALCommits > 0 {
		r.FsyncsPerCommit = float64(r.WALSyncs) / float64(r.WALCommits)
	}
	r.PagesPruned = delta("pages_pruned")
	r.PagesDecoded = delta("pages_decoded")
	r.SnapshotPins = int64(after["snapshot_pins"])
	r.RowVersions = int64(after["row_versions"])
	r.LiveRows = int64(after["live_rows"])
	r.GCRowsReclaimed = delta("gc_rows_reclaimed")
	r.CompactRuns = compactRuns.Load()
	r.GCRuns = gcRuns.Load()
	if follower != nil {
		r.ReplicaApplied = follower.Applied()
		r.ReplicaLag = follower.Lag()
	}
	return res, snap, nil
}

// buildWorkers assembles the scenario's worker mix. Worker i (across all
// classes, in declaration order) seeds its RNG with cfg.Seed+i, so a given
// (scenario, seed) pair replays the same op sequences.
func (sc Scenario) buildWorkers(cfg Config, sess *flor.Session, api *server.Server, follower *repl.Follower) []*worker {
	var workers []*worker
	reg := sess.Metrics()
	idx := int64(0)
	add := func(class string, n int, op func(w *worker) error) {
		for i := 0; i < n; i++ {
			workers = append(workers, &worker{
				class: class,
				rng:   rand.New(rand.NewSource(cfg.Seed + idx)),
				hist:  metrics.NewHistogram(),
				live:  reg.Histogram("macro:" + class),
				sheds: reg.Counter("macro:" + class + ":sheds"),
				fails: reg.Counter("macro:" + class + ":errors"),
				op:    op,
			})
			idx++
		}
	}
	add(ClassLogCommit, sc.Writers, func(w *worker) error {
		logBatch(sess, w.rng, sc.LogsPerCommit)
		return sess.Commit("")
	})
	add(ClassPointRead, sc.PointReaders, func(w *worker) error {
		return readOp(sess, pointQuery(w.rng))
	})
	add(ClassScanAgg, sc.ScanReaders, func(w *worker) error {
		return readOp(sess, scanAggQuery)
	})
	add(ClassAsOfRead, sc.AsOfReaders, func(w *worker) error {
		return asOfOp(sess, w.rng)
	})
	add(ClassHTTPRead, sc.HTTPReaders, func(w *worker) error {
		return httpOp(api, w.rng)
	})
	add(ClassReplicaRead, sc.ReplicaReaders, func(w *worker) error {
		return replicaOp(follower, w.rng)
	})
	return workers
}

// logBatch records n values under cycling names, mimicking a training-step
// flush: mostly floats, with an int counter mixed in.
func logBatch(sess *flor.Session, rng *rand.Rand, n int) {
	for i := 0; i < n; i++ {
		if i%valueNames == valueNames-1 {
			sess.Log(valueName(i), rng.Int63n(1000))
		} else {
			sess.Log(valueName(i), rng.Float64())
		}
	}
}

const scanAggQuery = "SELECT value_name, count(*) AS n FROM logs WHERE projid = '" + projID + "' GROUP BY value_name"

// pointQuery aggregates one hot value_name through the projid+value_name
// index; the small name set keeps the plan cache hot.
func pointQuery(rng *rand.Rand) string {
	return "SELECT count(*) AS n, avg(cast_float(value)) AS m FROM logs WHERE projid = '" +
		projID + "' AND value_name = '" + valueName(rng.Intn(valueNames)) + "'"
}

// readOp runs one query against a committed-epoch snapshot.
func readOp(sess *flor.Session, query string) error {
	view, err := sess.Reader()
	if err != nil {
		return err
	}
	defer view.Close()
	_, err = view.SQL(query)
	return err
}

// asOfOp reads at a uniformly random retained epoch. Losing the race with a
// concurrent GC cycle (the epoch retires between choosing and executing) is
// a shed, not an error — exactly the client-visible contract.
func asOfOp(sess *flor.Session, rng *rand.Rand) error {
	floor, cur := sess.RetentionFloor(), sess.Database().Epoch()
	if cur <= floor {
		return errShed
	}
	epoch := floor + 1 + rng.Int63n(cur-floor)
	view, err := sess.Reader()
	if err != nil {
		return err
	}
	defer view.Close()
	_, err = view.SQL(fmt.Sprintf("SELECT count(*) AS n FROM logs AS OF %d", epoch))
	if errors.Is(err, relation.ErrEpochRetired) {
		return errShed
	}
	return err
}

// httpOp drives the API server in-process: mostly /sql point reads, with
// /dataframe pivots mixed in. Admission rejections (429, 503) are sheds.
func httpOp(api *server.Server, rng *rand.Rand) error {
	var target string
	if rng.Intn(4) == 0 {
		target = "/dataframe?names=" + valueName(rng.Intn(valueNames))
	} else {
		target = "/sql?q=" + url.QueryEscape(pointQuery(rng))
	}
	rec := httptest.NewRecorder()
	api.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
	switch rec.Code {
	case http.StatusOK:
		return nil
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		return errShed
	default:
		return fmt.Errorf("macrobench: http %d: %s", rec.Code, rec.Body.String())
	}
}

// replicaOp reads on the follower behind its staleness gate — a gate
// refusal (the follower lagging past its bound) is a shed, matching the 503
// the HTTP surface would return.
func replicaOp(follower *repl.Follower, rng *rand.Rand) error {
	if err := follower.Gate(); err != nil {
		return errShed
	}
	return readOp(follower.Session(), pointQuery(rng))
}
