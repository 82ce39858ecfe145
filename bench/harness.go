package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	flor "flordb"
	"flordb/internal/relation"
	"flordb/internal/server"
	"flordb/internal/storage"
)

// config is one invocation's settings. Data-set sizes and the ops of a block
// are written in the workloads for scale = 1 and scale with scale; the number
// of blocks scales with seconds. No count is ever derived from a timer, so a
// given (seed, seconds, scale) repeats the same operations.
type config struct {
	workload string
	seed     int64
	seconds  float64
	scale    float64
	trace    bool
	dataRoot string // parent of the data directories
	outDir   string // result-*.json and trace-*.json

	breakOracle bool // self-test: expect one commit more than was acknowledged
}

// setups is how often an untraced run sets the workload up; setup_s is the
// median. A traced run reports no setup_s and sets up once.
const setups = 3

// stallLimit is the issue's latency limit for a commit. HEAD's automatic
// compactions exceed it, so the workloads' own limits are higher and ops
// slower than this are counted instead (bench.ops_over_250ms).
const stallLimit = 250 * time.Millisecond

func (c config) size(ref, min int) int {
	return max(min, int(math.Round(float64(ref)*c.scale)))
}

// blocks is how many measured blocks of w fit the nominal seconds.
func (c config) blocks(w *workload) int {
	return max(2, int(math.Round(c.seconds/w.blockSeconds)))
}

// workload is one closed, seeded, fixed-op-count benchmark. Its measured
// phase is a sequence of blocks that all do the same work from the same
// state: contention on a shared machine only ever adds time, and comes and
// goes within seconds, so each timing metric is computed per block and the
// run reports the best block's (see blockStat).
type workload struct {
	name     string
	why      string
	workUnit string
	limit    time.Duration // an op slower than this is a failed op
	clients  int

	blockOps     int     // ops of one block at scale 1 (writer ticks on mixed-lifecycle)
	blockSeconds float64 // what a block takes at HEAD, its restore and open included
	// restore: the ops change the project, so every block starts from a copy
	// of the project as build left it, reopened and warmed up by open.
	restore bool

	build   func(c *runCtx) error        // set-up, first half: inputs and seeding; leaves the project closed
	open    func(c *runCtx) error        // set-up, second half: open and warm-up
	measure func(c *runCtx, n int) error // one block of n ops
}

var workloads = []*workload{trainIngest, dashboardRefresh, coldOpen, mixedLifecycle}

func lookupWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// traceBlock is the length of the alternating traced/untraced stretches of
// ops in a traced run; comparing the two halves gives the tracing overhead
// under the same drift. It is prime so that an op at a fixed position of
// every block, such as the commit that compacts, is traced in some blocks.
const traceBlock = 17

// runCtx is the state of one set-up and its measured phase.
type runCtx struct {
	cfg config
	w   *workload
	dir string
	g   *generator

	sess  *flor.Session
	srv   *server.Server
	dash  *dashboard
	cycle [][6]query // dashboard-refresh: every distinct refresh
	runs  int        // runs committed into dir so far

	image     string // restore: the copy of dir taken after build
	imageRuns int    // runs committed into image

	tr   *tracer
	main *track
	wtr  *track // mixed-lifecycle: the writer's track

	samples   []float64 // op latencies, ms
	tracedMs  []float64 // traced run: latencies of traced / untraced stretches
	plainMs   []float64
	attempted int
	failed    int
	incorrect int
	stalls    int // ops and writer ticks slower than stallLimit
	work      int64
	errs      []string

	written     int64 // bytes written by set-up, opens and blocks; restores are not counted
	ticks       int   // mixed-lifecycle: writer ticks so far
	snapSeq     int64 // traced run: the newest snapshot seen
	compactions int   // traced run: snapshots installed during measured ops

	lateMs    []float64 // mixed-lifecycle: how late the writer started each tick
	httpBytes int64
	shed      int
	gcMs      []float64
	explains  map[string]string
}

func (c *runCtx) failf(incorrect bool, format string, args ...any) {
	c.failed++
	if incorrect {
		c.incorrect++
	}
	if len(c.errs) < 5 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

// record counts one attempted op. An error, a shed request and a missed
// latency limit are failed ops; a wrong answer (oracleError) also makes the
// run incorrect.
func (c *runCtx) record(d time.Duration, work int, err error) {
	c.attempted++
	c.samples = append(c.samples, ms(d))
	if d > stallLimit {
		c.stalls++
	}
	switch {
	case err != nil:
		_, wrong := err.(oracleError)
		c.failf(wrong, "op %d: %v", c.attempted-1, err)
	case d > c.w.limit:
		c.failf(false, "op %d: %v exceeds the %v limit", c.attempted-1, d, c.w.limit)
	default:
		c.work += int64(work)
	}
}

// timed runs one op under the clock. In a traced run ops alternate between
// traced and untraced stretches, and the two sets of latencies are kept apart.
func (c *runCtx) timed(op func()) time.Duration {
	i := len(c.samples)
	traced := c.tr != nil && (i/traceBlock)%2 == 1
	c.main.setOp(i, traced)
	id := c.main.begin("op")
	t := time.Now()
	op()
	d := time.Since(t)
	c.main.end(id)
	if traced {
		c.tracedMs = append(c.tracedMs, ms(d))
	} else if c.tr != nil {
		c.plainMs = append(c.plainMs, ms(d))
	}
	return d
}

// loop runs n ops one after another (a closed loop with one client). op is
// timed; check, when set, runs after the clock stops and compares the op's
// answer with the oracle.
func (c *runCtx) loop(n int, op func(i int) (work int, err error), check func(i int) error) {
	for i := 0; i < n; i++ {
		var work int
		var err error
		d := c.timed(func() { work, err = op(i) })
		if err == nil && check != nil {
			err = check(i)
		}
		c.record(d, work, err)
		c.noteSnapshot(true)
	}
}

// noteSnapshot, in a traced run, looks for a snapshot newer than the last one
// seen: each is one compaction that ran to the end. It runs after an op,
// outside the clock; count is false where the snapshot is the set-up's.
func (c *runCtx) noteSnapshot(count bool) {
	if c.tr == nil {
		return
	}
	snaps, err := storage.ListSnapshots(c.walPath())
	if err != nil || len(snaps) == 0 {
		return
	}
	if seq := snaps[len(snaps)-1].Seq; seq != c.snapSeq {
		c.snapSeq = seq
		if count {
			c.compactions++
		}
	}
}

// counted runs f and adds what the process wrote meanwhile to c.written.
func (c *runCtx) counted(f func() error) error {
	w0, _ := bytesWritten()
	err := f()
	w1, _ := bytesWritten()
	c.written += w1 - w0
	return err
}

func (c *runCtx) florDir() string { return filepath.Join(c.dir, ".flor") }
func (c *runCtx) walPath() string { return filepath.Join(c.florDir(), "flor.wal") }

func (c *runCtx) closeSession() error {
	if c.sess == nil {
		return nil
	}
	err := c.sess.Close()
	c.sess, c.srv = nil, nil
	return err
}

// teardown closes the session and removes the data directory.
func (c *runCtx) teardown() {
	c.closeSession()
	for _, d := range []string{c.dir, c.image} {
		if d != "" {
			os.RemoveAll(d)
		}
	}
	c.dir, c.image = "", ""
}

// restoreImage puts the project back as build left it.
func (c *runCtx) restoreImage() error {
	if err := c.closeSession(); err != nil {
		return err
	}
	if err := os.RemoveAll(c.dir); err != nil {
		return err
	}
	c.runs = c.imageRuns
	return os.CopyFS(c.dir, os.DirFS(c.image))
}

// verifyCommitted closes the session, reopens the project and checks that
// every acknowledged commit is present: tstamps 1..runs, each with its full
// set of log records, and one ts2vid row per commit. It runs outside the
// timed window and leaves the session closed.
func (c *runCtx) verifyCommitted() error {
	if err := c.closeSession(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	s, err := flor.Open(c.dir, projID, flor.Options{})
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	defer s.Close()
	res, err := s.SQL("SELECT tstamp, count(*) FROM logs GROUP BY tstamp")
	if err != nil {
		return err
	}
	runs := c.runs
	if c.cfg.breakOracle {
		runs++
	}
	want := make([]string, runs)
	for i := range want {
		want[i] = fmt.Sprintf("%d|%d", i+1, c.g.logRecsPerRun())
	}
	sort.Strings(want)
	if err := matchRows(canonRows(res.Rows), want); err != nil {
		return oracleError{fmt.Errorf("acknowledged commits after reopen: %w", err)}
	}
	res, err = s.SQL("SELECT count(*) FROM ts2vid")
	if err != nil {
		return err
	}
	if err := matchRows(canonRows(res.Rows), []string{fmt.Sprint(c.runs)}); err != nil {
		return oracleError{fmt.Errorf("ts2vid rows after reopen: %w", err)}
	}
	return nil
}

// oracleError marks a wrong answer, as opposed to an op that failed loudly.
type oracleError struct{ error }

// canonRows renders result rows as sorted "a|b|c" strings, the form the
// oracle's expectations are written in.
func canonRows(rows []relation.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		cells := make([]any, len(r))
		for j, v := range r {
			cells[j] = v.JSON()
		}
		out[i] = canonCells(cells)
	}
	sort.Strings(out)
	return out
}

func canonCells(cells []any) string {
	s := ""
	for j, v := range cells {
		if j > 0 {
			s += "|"
		}
		s += fmt.Sprint(v)
	}
	return s
}

// matchRows compares sorted canonical rows with the sorted expectation.
func matchRows(got, want []string) error {
	if len(got) != len(want) {
		return fmt.Errorf("got %d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("row %d: got %q, want %q", i, got[i], want[i])
		}
	}
	return nil
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// blockStat is what one measured block reports. The machine is shared:
// another tenant's work slows a block down, never speeds it up, and it comes
// and goes within seconds. So each timing metric is computed per block, and
// the run reports the best block's value: the level reached when the cores
// and their caches were the benchmark's own.
type blockStat struct {
	Ops        int     `json:"ops"`
	P50Ms      float64 `json:"op_p50_ms"`
	P95Ms      float64 `json:"op_p95_ms"`
	WorkPerS   float64 `json:"work_per_s"`
	CPUMsPerOp float64 `json:"cpu_ms_per_op"`
}

// bestBlock is the lowest value of one block statistic.
func bestBlock(blocks []blockStat, stat func(blockStat) float64) float64 {
	best := stat(blocks[0])
	for _, b := range blocks[1:] {
		best = min(best, stat(b))
	}
	return best
}

// result is everything one run of one workload reports.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Scale     float64           `json:"scale"`
	Traced    bool              `json:"traced"`
	Env       envStamp          `json:"env"`
	Counts    map[string]int64  `json:"counts"` // exact counts: they repeat for a given seed
	Samples   int               `json:"samples"`
	SamplesMs []float64         `json:"samples_ms"` // op latencies in op order, block after block
	Blocks    []blockStat       `json:"blocks"`
	SetupS    []float64         `json:"setup_s"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Correct   bool              `json:"correct"`
	Errors    []string          `json:"errors,omitempty"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
	Explains  map[string]string `json:"explain,omitempty"`
	Digest    uint64            `json:"input_digest"`

	tracer *tracer
	opMs   float64 // total traced op time, the base of span shares
}

// setUp makes a fresh data directory and runs the workload's set-up in it:
// build, the image of the built project where blocks restore it, open.
func setUp(cfg config, w *workload) (*runCtx, error) {
	c := &runCtx{cfg: cfg, w: w, explains: map[string]string{}}
	dir, err := os.MkdirTemp(cfg.dataRoot, fmt.Sprintf("flordb-bench-%d-%s-", os.Getpid(), w.name))
	if err != nil {
		return c, err
	}
	c.dir = dir
	if err := c.counted(func() error { return w.build(c) }); err != nil {
		return c, err
	}
	if w.restore {
		c.image, c.imageRuns = dir+".image", c.runs
		if err := os.CopyFS(c.image, os.DirFS(dir)); err != nil {
			return c, err
		}
	}
	return c, c.counted(func() error { return w.open(c) })
}

// runWorkload sets the workload up (an untraced run: three times, for
// setup_s), measures its blocks on the last set-up, verifies what was
// acknowledged, and in a traced run probes the layers on the same data.
func runWorkload(cfg config) (*result, error) {
	w := lookupWorkload(cfg.workload)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err := os.MkdirAll(cfg.dataRoot, 0o755); err != nil {
		return nil, err
	}
	removeStaleDataDirs(cfg.dataRoot)
	c := &runCtx{}
	defer func() { c.teardown() }()
	n := setups
	if cfg.trace {
		n = 1
	}
	var setupS []float64
	for k := 0; k < n; k++ {
		c.teardown()
		runtime.GC()
		t := time.Now()
		var err error
		if c, err = setUp(cfg, w); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setupS = append(setupS, time.Since(t).Seconds())
	}
	if cfg.trace {
		c.tr = newTracer()
		c.main = c.tr.track("client")
		c.noteSnapshot(false)
	}

	ops := cfg.size(w.blockOps, 5)
	var blocks []blockStat
	var mallocs, gcPauseNs uint64
	var pruned, decoded int64
	for b := 0; b < cfg.blocks(w); b++ {
		if b > 0 && w.restore {
			if err := c.restoreImage(); err != nil {
				return nil, fmt.Errorf("%s: restore: %w", w.name, err)
			}
			if err := c.counted(func() error { return w.open(c) }); err != nil {
				return nil, fmt.Errorf("%s: reopen: %w", w.name, err)
			}
			c.noteSnapshot(false)
		}
		runtime.GC() // every block starts from the same collector state
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		pruned0, decoded0 := relation.ScanStats()
		s0, work0 := len(c.samples), c.work
		cpu0, t0 := cpuTime(), time.Now()
		if err := c.counted(func() error { return w.measure(c, ops) }); err != nil {
			return nil, fmt.Errorf("%s: block %d: %w", w.name, b, err)
		}
		wall, cpu := time.Since(t0), cpuTime()-cpu0
		runtime.ReadMemStats(&m1)
		pruned1, decoded1 := relation.ScanStats()
		mallocs, gcPauseNs = mallocs+m1.Mallocs-m0.Mallocs, gcPauseNs+m1.PauseTotalNs-m0.PauseTotalNs
		pruned, decoded = pruned+pruned1-pruned0, decoded+decoded1-decoded0
		sorted := sortedCopy(c.samples[s0:])
		blocks = append(blocks, blockStat{
			Ops: len(sorted), P50Ms: quantile(sorted, 0.50), P95Ms: quantile(sorted, 0.95),
			WorkPerS:   float64(c.work-work0) / wall.Seconds(),
			CPUMsPerOp: ms(cpu) / float64(len(sorted)),
		})
	}

	if c.sess == nil { // cold-open holds no session between ops; the gauges below need one
		s, err := flor.Open(c.dir, projID, flor.Options{})
		if err != nil {
			return nil, err
		}
		c.sess = s
	}
	heap := heapBytes() // session still open
	_, haveIO := bytesWritten()
	rowVersions, _ := c.sess.Database().RowVersions()
	syncs, commits := c.sess.WALSyncCount(), c.sess.WALCommitCount()
	hits, misses := c.sess.PlanCacheStats()
	gcRows := c.sess.GCRowsReclaimed()

	c.attempted++ // the reopen-and-verify below counts as one op
	if err := c.verifyCommitted(); err != nil {
		_, wrong := err.(oracleError)
		c.failf(wrong, "verify: %v", err)
	}
	disk, err := dirBytes(c.florDir())
	if err != nil {
		return nil, err
	}
	if !haveIO {
		c.written = disk // no /proc/self/io: fall back to what is left on disk
	}
	// The set-up logged runs 0..runs; every block after the first logged the
	// runs past the image again.
	payload := c.g.payloadBytes(0, c.runs)
	if w.restore {
		payload += int64(len(blocks)-1) * c.g.payloadBytes(c.imageRuns, c.runs)
	}
	liveRows := c.g.logsRows(c.runs)

	nops := len(c.samples)
	r := &result{
		Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Scale: cfg.scale, Traced: cfg.trace,
		Env:     stampEnv(cfg.dataRoot),
		Samples: nops, SamplesMs: c.samples, Blocks: blocks, SetupS: setupS,
		Attempted: c.attempted, Failed: c.failed, Correct: c.incorrect == 0,
		Errors: c.errs, Explains: c.explains, Digest: c.g.digest(min(c.runs, 8)),
		Counts: map[string]int64{
			"blocks": int64(len(blocks)), "ops": int64(nops), "runs_committed": int64(c.runs), "work_units": c.work,
			"bytes_written": c.written, "payload_bytes": payload, "disk_bytes": disk,
			"live_log_rows": liveRows, "wal_syncs": syncs, "wal_commits": commits,
			"pages_decoded": decoded, "pages_pruned": pruned,
			"http_bytes": c.httpBytes,
		},
		tracer: c.tr,
	}
	r.EndToEnd = map[string]metric{
		"setup_s":            {median(setupS), "s"},
		"op_p50_ms":          {bestBlock(blocks, func(b blockStat) float64 { return b.P50Ms }), "ms"},
		"op_p95_ms":          {bestBlock(blocks, func(b blockStat) float64 { return b.P95Ms }), "ms"},
		"work_per_s":         {-bestBlock(blocks, func(b blockStat) float64 { return -b.WorkPerS }), "1/s"},
		"cpu_ms_per_op":      {bestBlock(blocks, func(b blockStat) float64 { return b.CPUMsPerOp }), "ms"},
		"heap_mb":            {float64(heap) / 1e6, "MB"},
		"write_amp":          {float64(c.written) / float64(payload), "x"},
		"disk_bytes_per_row": {float64(disk) / float64(liveRows), "B/row"},
		"ok_ratio":           {1 - float64(c.failed)/float64(c.attempted), "ratio"},
	}
	if !cfg.trace {
		return r, nil
	}

	p, err := probe(c)
	if err != nil {
		return nil, fmt.Errorf("%s: probe: %w", w.name, err)
	}
	for _, s := range c.main.Spans {
		if s.Name == "op" {
			r.opMs += float64(s.End-s.Start) / 1e6
		}
	}
	r.PerLayer = perLayer(c, p, layerInputs{
		ops: nops, mallocs: mallocs, gcPauseNs: gcPauseNs,
		heap: heap, rowVersions: rowVersions, syncs: syncs, commits: commits,
		hits: hits, misses: misses, gcRows: gcRows,
		decoded: decoded, pruned: pruned,
	})
	return r, nil
}
