package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"time"

	flor "flordb"
	"flordb/internal/relation"
	"flordb/internal/server"
)

// ---------- train-ingest ----------

var trainIngest = &workload{
	name: "train-ingest",
	why: "the critical path the paper protects: flor.log and a durable commit. All of its work is in " +
		"record, the storage WAL, vcs and relation inserts; sqlparse, pivot and server are bypassed",
	workUnit: "log records committed",
	// One commit per block runs an automatic compaction, 0.15–0.25 s at this
	// depth at HEAD: over the issue's 250 ms on a slow day, so the limit is
	// 1 s and bench.ops_over_250ms counts the stalls.
	limit:        time.Second,
	clients:      1,
	blockOps:     400,
	blockSeconds: 1.25,
	restore:      true,
	build: func(c *runCtx) error {
		c.g = newGenerator(c.cfg.seed, 2)
		if err := c.openSession(trainOptions); err != nil {
			return err
		}
		if err := c.seedRuns(c.cfg.size(1000, 20)); err != nil {
			return err
		}
		return c.closeSession()
	},
	open: func(c *runCtx) error {
		if err := c.openSession(trainOptions); err != nil {
			return err
		}
		// Warm-up: the same op, executed and discarded.
		return c.seedRuns(c.cfg.size(50, 2))
	},
	measure: func(c *runCtx, n int) error {
		c.loop(n, func(int) (int, error) {
			if err := c.g.run(c.sess, c.main, c.runs); err != nil {
				return 0, err
			}
			c.runs++
			return c.g.logRecsPerRun(), nil
		}, nil)
		return nil
	},
}

var trainOptions = flor.Options{SnapshotEvery: 256}

func (c *runCtx) openSession(opts flor.Options) error {
	s, err := flor.Open(c.dir, projID, opts)
	c.sess = s
	return err
}

func (c *runCtx) seedRuns(n int) error {
	for i := 0; i < n; i++ {
		if err := c.g.run(c.sess, nil, c.runs); err != nil {
			return err
		}
		c.runs++
	}
	return nil
}

// buildDataset writes the read workloads' data: runs committed without fsync
// and folded into a snapshot, then a tail of uncompacted runs left in the WAL.
// The session is closed afterwards.
func (c *runCtx) buildDataset(runs, tail int) error {
	c.g = newGenerator(c.cfg.seed, 16)
	s, err := flor.Open(c.dir, projID, flor.Options{NoSync: true})
	if err != nil {
		return err
	}
	c.sess = s
	if err := c.seedRuns(runs); err != nil {
		return err
	}
	if _, err := s.Compact(); err != nil {
		return err
	}
	if err := c.seedRuns(tail); err != nil {
		return err
	}
	return c.closeSession()
}

// ---------- dashboard-refresh ----------

// query is one read of the dashboard, in the form the HTTP API and the
// in-process API both take, with the oracle's expected answer.
type query struct {
	class string
	sql   string   // empty for the dataframe read
	want  []string // sorted canonical rows (aggregates)
	rows  int      // expected row count
}

func (q query) url() string {
	if q.sql == "" {
		return "/dataframe?names=loss,acc"
	}
	return "/sql?q=" + url.QueryEscape(q.sql)
}

// dashboard builds the six reads of one refresh over a data set of R runs of
// E iterations. Every expectation is closed-form in R and E.
type dashboard struct {
	g     *generator
	runs  int
	floor int // the retention floor: AS OF may not reach below it
}

// dashCycle is the period after which refresh(i) repeats: 32 point names,
// 4 range window pairs, 16 AS OF epochs.
const dashCycle = 32

// cycle is every distinct refresh, built ahead of the measured phase.
func (d *dashboard) cycle() [][6]query {
	out := make([][6]query, dashCycle)
	for i := range out {
		out[i] = d.refresh(i)
	}
	return out
}

const (
	classPoint   = "point"
	classRange   = "range"
	classScanAgg = "scanagg"
	classJoin    = "join"
	classAsOf    = "asof"
	classFrame   = "dataframe"
)

var dashClasses = []string{classPoint, classRange, classScanAgg, classJoin, classAsOf, classFrame}

// window returns the tstamp range [a, b] that starts at fraction num/den of
// the history and spans share of it (at least one tstamp).
func (d *dashboard) window(num, den int, share float64) (a, b int) {
	a = 1 + d.runs*num/den
	b = min(d.runs, a+max(0, int(float64(d.runs)*share)-1))
	return a, b
}

func (d *dashboard) point(i int) query {
	name := valueNames[i%len(valueNames)]
	return query{class: classPoint, rows: 1,
		sql:  fmt.Sprintf("SELECT count(*), min(tstamp), max(tstamp) FROM logs WHERE projid = '%s' AND value_name = '%s'", projID, name),
		want: []string{fmt.Sprintf("%d|1|%d", d.g.perName(d.runs), d.runs)}}
}

// twoWindows counts the logs rows of two disjoint tstamp windows. The OR keeps
// the planner off the ordered tstamp index: it scans with the predicate as a
// zone filter, so pages outside both windows are pruned undecoded.
func (d *dashboard) twoWindows(a1, b1, a2, b2 int) query {
	return query{class: classRange, rows: 1,
		sql: fmt.Sprintf("SELECT count(*) FROM logs WHERE tstamp BETWEEN %d AND %d OR tstamp BETWEEN %d AND %d",
			a1, b1, a2, b2),
		want: []string{fmt.Sprint(d.g.logsRows(b1 - a1 + 1 + b2 - a2 + 1))}}
}

// rangeQ compares two eighths of the history, one from each half; the pair
// cycles over four positions.
func (d *dashboard) rangeQ(i int) query {
	a1, b1 := d.window(i%4, 10, 0.125)
	a2, b2 := d.window(5+i%4, 10, 0.125)
	return d.twoWindows(a1, b1, a2, b2)
}

const scanAggSQL = "SELECT value_name, count(*) FROM logs GROUP BY value_name"

func (d *dashboard) scanAgg() query {
	want := make([]string, len(valueNames))
	for i, n := range valueNames {
		want[i] = fmt.Sprintf("%s|%d", n, d.g.perName(d.runs))
	}
	sort.Strings(want)
	return query{class: classScanAgg, rows: len(want), want: want, sql: scanAggSQL}
}

func (d *dashboard) join() query {
	a, b := d.window(1, 2, 0.04)
	want := make([]string, d.g.epochs)
	for k := range want {
		want[k] = fmt.Sprintf("%d|%d", k, (b-a+1)*namesPerIter)
	}
	sort.Strings(want)
	return query{class: classJoin, rows: len(want), want: want,
		sql: fmt.Sprintf("SELECT loops.loop_iteration, count(*) FROM logs JOIN loops ON logs.ctx_id = loops.ctx_id "+
			"WHERE logs.tstamp BETWEEN %d AND %d GROUP BY loops.loop_iteration", a, b)}
}

// asOf reads the history as of one of 16 fixed epochs in its second half, or
// in what epoch GC has left of it.
func (d *dashboard) asOf(i int) query {
	lo := max(d.runs/2, d.floor)
	e := lo + (i%16)*(d.runs-lo)/16
	want := make([]string, len(valueNames))
	for k, n := range valueNames {
		want[k] = fmt.Sprintf("%s|%d", n, d.g.perName(e))
	}
	sort.Strings(want)
	return query{class: classAsOf, rows: len(want), want: want,
		sql: fmt.Sprintf("SELECT value_name, count(*) FROM logs GROUP BY value_name AS OF %d", e)}
}

func (d *dashboard) frame() query {
	return query{class: classFrame, rows: int(d.g.perName(d.runs))}
}

// refresh is the fixed bundle of six reads, always in this order.
func (d *dashboard) refresh(i int) [6]query {
	return [6]query{d.point(i), d.rangeQ(i), d.scanAgg(), d.join(), d.asOf(i), d.frame()}
}

// firstQuery is the zone-selective read cold-open and the probe issue right
// after Open: two windows of 2 % of the history each, a few pages in all.
func (d *dashboard) firstQuery() query {
	a1, b1 := d.window(1, 3, 0.02)
	a2, b2 := d.window(2, 3, 0.02)
	return d.twoWindows(a1, b1, a2, b2)
}

// capture is the counting ResponseWriter the server writes into: no socket,
// the body kept for the oracle.
type capture struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (w *capture) Header() http.Header         { return w.header }
func (w *capture) WriteHeader(code int)        { w.status = code }
func (w *capture) Write(b []byte) (int, error) { return w.body.Write(b) }

func (w *capture) reset() {
	w.status = http.StatusOK
	w.body.Reset()
	clear(w.header)
}

// serve answers one query through ServeHTTP and returns the bytes written.
// A 429 or 503 is a shed request: a failed op, counted.
func (c *runCtx) serve(tr *track, w *capture, q query) (int, error) {
	req, err := http.NewRequest(http.MethodGet, q.url(), nil)
	if err != nil {
		return 0, err
	}
	w.reset()
	id := tr.begin("server." + q.class)
	c.srv.ServeHTTP(w, req)
	tr.end(id)
	switch w.status {
	case http.StatusOK:
		return w.body.Len(), nil
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		c.shed++
		return w.body.Len(), fmt.Errorf("%s: shed with status %d", q.class, w.status)
	default:
		return w.body.Len(), fmt.Errorf("%s: status %d: %s", q.class, w.status, w.body.Bytes())
	}
}

// checkBody compares a captured response with the oracle. Aggregates are
// decoded in full; the dataframe, hundreds of kilobytes, by its row_count.
func (q query) checkBody(body []byte) error {
	if q.sql == "" {
		tail := []byte(`"row_count":` + strconv.Itoa(q.rows) + `}`)
		if !bytes.HasSuffix(bytes.TrimSpace(body), tail) {
			return oracleError{fmt.Errorf("%s: response does not end with %s", q.class, tail)}
		}
		return nil
	}
	var doc struct {
		Rows [][]any `json:"rows"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return oracleError{fmt.Errorf("%s: response is not JSON: %w", q.class, err)}
	}
	got := make([]string, len(doc.Rows))
	for i, r := range doc.Rows {
		got[i] = canonCells(r)
	}
	sort.Strings(got)
	if err := matchRows(got, q.want); err != nil {
		return oracleError{fmt.Errorf("%s: %w", q.class, err)}
	}
	return nil
}

var dashboardRefresh = &workload{
	name: "dashboard-refresh",
	why: "the read path a human waits on: six requests through server into sqlparse, relation scans and " +
		"pivot over a compacted snapshot plus a WAL tail. The WAL and vcs do no work in the measured phase",
	workUnit:     "requests answered",
	limit:        time.Second,
	clients:      1,
	blockOps:     dashCycle,
	blockSeconds: 1.5,
	build: func(c *runCtx) error {
		return c.buildDataset(c.cfg.size(400, 8), c.cfg.size(20, 2))
	},
	open: func(c *runCtx) error {
		if err := c.openSession(flor.Options{}); err != nil {
			return err
		}
		c.srv = server.New(c.sess, server.Config{})
		c.dash = &dashboard{g: c.g, runs: c.runs}
		c.cycle = c.dash.cycle()
		for _, q := range c.cycle[0] {
			if q.sql != "" {
				var err error
				if c.explains[q.class], err = c.sess.Explain(q.sql); err != nil {
					return err
				}
			}
		}
		// Warm-up refreshes, executed and discarded: they fill the plan
		// cache and the lazily built zone maps.
		var w capture
		w.header = http.Header{}
		for i := 0; i < c.cfg.size(20, 2); i++ {
			for _, q := range c.cycle[i%dashCycle] {
				if _, err := c.serve(nil, &w, q); err != nil {
					return err
				}
			}
		}
		return nil
	},
	measure: func(c *runCtx, n int) error {
		// One response buffer per request of the refresh: the oracle reads
		// them after the clock stops.
		var ws [6]capture
		for k := range ws {
			ws[k].header = http.Header{}
		}
		first := len(c.samples) // the cycle goes on from block to block
		var qs [6]query
		c.loop(n, func(i int) (int, error) {
			qs = c.cycle[(first+i)%dashCycle]
			for k, q := range qs {
				n, err := c.serve(c.main, &ws[k], q)
				c.httpBytes += int64(n)
				if err != nil {
					return k, err
				}
			}
			return len(qs), nil
		}, func(int) error {
			for k, q := range qs {
				if err := q.checkBody(ws[k].body.Bytes()); err != nil {
					return err
				}
			}
			return nil
		})
		return nil
	},
}

// ---------- cold-open ----------

var coldOpen = &workload{
	name: "cold-open",
	why: "recovery: storage.RecoverTables, record.ReadSnapshot and the relation bulk load, then one " +
		"zone-selective query. It is the one place a lazy page decode could show, and the other three never run it in an op",
	workUnit:     "row versions recovered",
	limit:        2 * time.Second,
	clients:      1,
	blockOps:     25,
	blockSeconds: 1.6,
	build: func(c *runCtx) error {
		return c.buildDataset(c.cfg.size(100, 8), c.cfg.size(5, 2))
	},
	open: func(c *runCtx) error {
		c.dash = &dashboard{g: c.g, runs: c.runs}
		for i := 0; i < c.cfg.size(10, 1); i++ {
			if _, err := c.coldOpenOp(nil); err != nil {
				return err
			}
		}
		return nil
	},
	measure: func(c *runCtx, n int) error {
		c.loop(n, func(int) (int, error) { return c.coldOpenOp(c.main) }, nil)
		return nil
	},
}

// coldOpenOp opens the project, answers the first query and closes. The
// answer is compared inside the op: it is one integer.
func (c *runCtx) coldOpenOp(tr *track) (int, error) {
	id := tr.begin("flor.open")
	s, err := flor.Open(c.dir, projID, flor.Options{})
	tr.end(id)
	if err != nil {
		return 0, err
	}
	q := c.dash.firstQuery()
	id = tr.begin("flor.first_query")
	res, err := s.SQL(q.sql)
	tr.end(id)
	if err == nil {
		if merr := matchRows(canonRows(res.Rows), q.want); merr != nil {
			err = oracleError{merr}
		}
	}
	id = tr.begin("flor.close")
	cerr := s.Close()
	tr.end(id)
	if err == nil {
		err = cerr
	}
	return c.runs * c.g.rowsPerRun(), err
}

// ---------- mixed-lifecycle ----------

const (
	mixedTick     = 10 * time.Millisecond
	mixedGCEvery  = 64
	mixedAsOfBack = 100
)

// A block is 96 writer ticks; with a compaction every 64 commits since the
// block's open, every block holds one compaction and one GC cycle. Seeding
// compacts every 512 commits, as the issue has it. Scans run on one worker:
// with the writer that makes two runnable goroutines on two cores, where
// morsel-parallel scans made three or four and the reader's latency a matter
// of scheduling (ten-seed spread of op_p50_ms 15.5 % against 1.6 %).
var (
	mixedOptions     = flor.Options{SnapshotEvery: 64, RetainEpochs: 256, ScanWorkers: 1}
	mixedSeedOptions = flor.Options{SnapshotEvery: 512, RetainEpochs: 256}
)

var mixedLifecycle = &workload{
	name: "mixed-lifecycle",
	why: "writes beside reads on one session: an open-loop writer (one run every 10 ms, epoch GC every 64th) and a " +
		"closed-loop reader over a growing, uncompacted store with more query texts than the plan cache holds, so a " +
		"read gain that costs writes, or a compaction that stalls readers, shows",
	workUnit:     "reader queries answered",
	limit:        time.Second,
	clients:      2,
	blockOps:     96,
	blockSeconds: 1.2,
	restore:      true,
	build: func(c *runCtx) error {
		c.g = newGenerator(c.cfg.seed, 1)
		if err := c.openSession(mixedSeedOptions); err != nil {
			return err
		}
		if err := c.seedRuns(c.cfg.size(1500, mixedAsOfBack+20)); err != nil {
			return err
		}
		return c.closeSession()
	},
	open: func(c *runCtx) error {
		if err := c.openSession(mixedOptions); err != nil {
			return err
		}
		for i := 0; i < c.cfg.size(20, 2); i++ {
			if _, err := c.readerRefresh(nil)(); err != nil {
				return err
			}
		}
		return nil
	},
	measure: func(c *runCtx, ticks int) error {
		base, first := c.runs, c.ticks
		if c.tr != nil && c.wtr == nil {
			c.wtr = c.tr.track("writer")
		}
		wtr := c.wtr
		type tickResult struct {
			late, total time.Duration
			gc          time.Duration
			err         error
		}
		results := make([]tickResult, ticks)
		done := make(chan struct{})
		go func() {
			defer close(done)
			start := time.Now()
			for k := 0; k < ticks; k++ {
				due := start.Add(time.Duration(k) * mixedTick)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				r := &results[k]
				r.late = time.Since(due)
				wtr.setOp(first+k, c.tr != nil && ((first+k)/traceBlock)%2 == 1)
				id := wtr.begin("writer.tick")
				r.err = c.g.run(c.sess, wtr, base+k)
				if r.err == nil && (k+1)%mixedGCEvery == 0 {
					gid, t := wtr.begin("flor.gc"), time.Now()
					_, r.err = c.sess.GCEpochs()
					r.gc = time.Since(t)
					wtr.end(gid)
				}
				wtr.end(id)
				r.total = time.Since(due)
				c.noteSnapshot(true)
			}
		}()
		// The reader: a closed loop until the writer's last tick.
	reader:
		for {
			select {
			case <-done:
				break reader
			default:
			}
			var check func() (int, error)
			d := c.timed(func() { check = c.readerRefresh(c.main) })
			work, err := check()
			c.record(d, work, err)
		}
		c.ticks += ticks
		for k, r := range results {
			c.attempted++
			if r.err != nil {
				c.failf(false, "writer tick %d: %v", first+k, r.err)
			} else {
				c.runs++
				if r.total > c.w.limit {
					c.failf(false, "writer tick %d finished %v after it was due", first+k, r.total)
				}
				if r.total-r.late > stallLimit {
					c.stalls++
				}
			}
			c.lateMs = append(c.lateMs, ms(r.late))
			if r.gc > 0 {
				c.gcMs = append(c.gcMs, ms(r.gc))
			}
		}
		return nil
	},
}

// readerRefresh pins a view and runs the reader's four queries; the timed
// part ends when it returns. The returned function compares the answers with
// the oracle, which knows them in closed form from the view's epoch: every
// commit is one run, so epoch e holds e runs and its newest tstamp is e.
func (c *runCtx) readerRefresh(tr *track) func() (work int, err error) {
	fail := func(err error) func() (int, error) { return func() (int, error) { return 0, err } }
	id := tr.begin("flor.reader_pin")
	v, err := c.sess.Reader()
	tr.end(id)
	if err != nil {
		return fail(err)
	}
	defer v.Close()
	e := int(v.Epoch())
	sqls := [4]string{
		fmt.Sprintf("SELECT count(*) FROM logs WHERE projid = '%s' AND value_name = 'loss' AND tstamp = %d", projID, e),
		scanAggSQL,
		fmt.Sprintf("SELECT count(*) FROM logs WHERE tstamp BETWEEN %d AND %d", e-4, e),
		fmt.Sprintf("SELECT count(*) FROM logs AS OF %d", e-mixedAsOfBack),
	}
	classes := [4]string{classPoint, classScanAgg, classRange, classAsOf}
	var got [4][]relation.Row
	for k, q := range sqls {
		id := tr.begin("sql." + classes[k])
		res, err := v.SQL(q)
		tr.end(id)
		if err != nil {
			return fail(fmt.Errorf("%s at epoch %d: %w", classes[k], e, err))
		}
		got[k] = res.Rows
	}
	return func() (int, error) {
		per := c.g.logRecsPerRun()
		want := [4][]string{
			{fmt.Sprint(c.g.epochs)},
			(&dashboard{g: c.g, runs: e}).scanAgg().want,
			{fmt.Sprint(5 * per)},
			{fmt.Sprint((e - mixedAsOfBack) * per)},
		}
		for k := range sqls {
			if err := matchRows(canonRows(got[k]), want[k]); err != nil {
				return 0, oracleError{fmt.Errorf("%s at epoch %d: %w", classes[k], e, err)}
			}
		}
		return len(sqls), nil
	}
}
