package sqlparse

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"flordb/internal/relation"
)

// Gather: parallelism as a plan node. A statement's batch pipeline is built
// by a factory; serial execution calls it once. When the pipeline bottoms out
// in a full table scan (stream.scan) and the gather rule below allows it, the
// factory is called once per worker instead, the table's physical row store
// is carved into page-aligned morsels, and workers claim morsels from a
// shared atomic counter, re-arming their own scan per morsel via SetRange.
// Nothing below the sink is shared between workers — each pipeline has its
// own batch buffers, compiled closures and scratch rows — so the only
// cross-goroutine traffic is the morsel counter and the per-morsel output
// slots. Joins and index paths staying serial is simply "no gather was
// inserted": their streams carry no scan to carve.
//
// Correctness invariants, in terms the equivalence property tests assert:
//
//   - MVCC: every worker's scan resolves against the same published table
//     state semantics as a serial scan (each NextBatch computes its selection
//     vector from the scan's own pinned state), so tombstones and AS OF pins
//     filter identically.
//   - Ordering: non-aggregate results are reassembled in morsel order, which
//     is exactly row-store order — the serial scan's order — before the
//     (stable) ORDER BY/LIMIT operators run, so output is byte-identical to
//     serial. Aggregates merge per-worker partials and emit groups in
//     canonical key order: a deterministic permutation of the serial output,
//     row-multiset-equal; statements where group order changes the visible
//     result (LIMIT/OFFSET) stay serial.
//   - Deferred errors: expression evaluation errors latch into slots
//     registered on the shared execCtx exactly as in serial execution; any
//     worker's error surfaces after the drain.
var parallelMinRows = 8192 // smallest row store worth fanning out; test-overridable

// morselRows is the scan range one worker claims at a time: a multiple of
// the zone page size, so morsel boundaries stay page-aligned and every
// complete page inside a morsel is prunable by its zone.
const morselRows = 4 * relation.ZonePageRows

// EffectiveScanWorkers resolves an ExecOptions.ScanWorkers (or
// flor.Options.ScanWorkers) setting against the host: 0 means GOMAXPROCS,
// anything else is clamped to [1, GOMAXPROCS].
func EffectiveScanWorkers(n int) int {
	maxp := runtime.GOMAXPROCS(0)
	if n <= 0 || n > maxp {
		return maxp
	}
	return n
}

// gatherWidth is the planner's parallelism rule: how many workers, over how
// many morsels, a pipeline fans out to. (1, 0) means serial.
func gatherWidth(stmt *SelectStmt, agg bool, scan *relation.BatchScanOp, opts ExecOptions) (workers, morsels int) {
	workers = EffectiveScanWorkers(opts.ScanWorkers)
	switch {
	case scan == nil || workers < 2:
		return 1, 0
	case agg && (stmt.Limit >= 0 || stmt.Offset > 0):
		// Merged partials emit groups in key order, not the serial first-seen
		// order, and LIMIT/OFFSET pick rows *by* order.
		return 1, 0
	case !agg && stmt.Limit >= 0 && len(stmt.OrderBy) == 0:
		// A serial LIMIT without ORDER BY stops scanning early; a gather would
		// do all the work to throw most of it away.
		return 1, 0
	}
	// Morsels cover the *physical* row store (tombstoned versions included —
	// visibility is the scan's job). The store is append-only: a range valid
	// against this scan's state is valid against every worker's.
	storeLen := scan.StoreLen()
	if storeLen < parallelMinRows {
		return 1, 0
	}
	morsels = (storeLen + morselRows - 1) / morselRows
	if workers = min(workers, morsels); workers < 2 {
		return 1, 0
	}
	return workers, morsels
}

// gather is a statement's compiled batch pipelines: one when serial, one per
// worker (morsels > 0) otherwise.
type gather struct {
	ps      []stream
	morsels int
}

// newGather builds the first pipeline, asks the gather rule how wide to go,
// and builds the rest. Every pipeline is compiled up front, on this
// goroutine: error-slot registration on the execCtx is not synchronized, so
// no compilation may happen once workers run.
func newGather(stmt *SelectStmt, agg bool, opts ExecOptions, build func() (stream, error)) (*gather, error) {
	p, err := build()
	if err != nil {
		return nil, err
	}
	workers, morsels := gatherWidth(stmt, agg, p.scan, opts)
	g := &gather{ps: []stream{p}, morsels: morsels}
	for len(g.ps) < workers {
		if p, err = build(); err != nil {
			return nil, err
		}
		g.ps = append(g.ps, p)
	}
	return g, nil
}

// input is the plan subtree below the pipelines' projection.
func (g *gather) input() *PlanNode { return g.ps[0].node }

// node places the Gather operator above the per-worker subtree when the
// pipelines are parallel.
func (g *gather) node(worker *PlanNode, suffix string) *PlanNode {
	if g.morsels == 0 {
		return worker
	}
	return &PlanNode{
		Op:       "Gather",
		Detail:   fmt.Sprintf("workers=%d morsels=%d%s", len(g.ps), g.morsels, suffix),
		Children: []*PlanNode{worker},
	}
}

// run drives every pipeline to completion; drain(w, m) consumes what
// pipeline w produces for morsel m. The serial pipeline runs whole, on the
// calling goroutine.
func (g *gather) run(drain func(w, m int)) {
	if g.morsels == 0 {
		drain(0, 0)
		return
	}
	storeLen := g.ps[0].scan.StoreLen()
	var next atomic.Int64
	panics := make([]any, len(g.ps))
	var wg sync.WaitGroup
	for w := range g.ps {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() { panics[w] = recover() }()
			for {
				m := int(next.Add(1)) - 1
				if m >= g.morsels {
					return
				}
				lo := m * morselRows
				g.ps[w].scan.SetRange(lo, min(lo+morselRows, storeLen))
				drain(w, m)
			}
		}(w)
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}

// rows puts the rows adapter at the root of each pipeline. The serial
// pipeline streams through it (so a LIMIT stops the scan early); a parallel
// gather is lazy — EXPLAIN never runs workers — and reassembles the morsels'
// rows in morsel order, which is row-store order.
func (g *gather) rows() relation.Iterator {
	its := make([]relation.Iterator, len(g.ps))
	for w, p := range g.ps {
		its[w] = relation.NewRowsFromBatches(p.it)
	}
	if g.morsels == 0 {
		return its[0]
	}
	return relation.NewLazyScan(its[0].Schema(), func() []relation.Row {
		out := make([][]relation.Row, g.morsels)
		g.run(func(w, m int) { out[m] = relation.Collect(its[w]) })
		total := 0
		for _, rs := range out {
			total += len(rs)
		}
		all := make([]relation.Row, 0, total)
		for _, rs := range out {
			all = append(all, rs...)
		}
		return all
	})
}

// aggregate sinks every pipeline into its own relation.PartialAgg and
// returns the (lazy) aggregated row stream: the one sink rendered as is when
// serial, the workers' partials merged and rendered in key order otherwise.
func (g *gather) aggregate(groupCols []string, specs []relation.AggSpec) (relation.Iterator, error) {
	sinks := make([]*relation.PartialAgg, len(g.ps))
	for w, p := range g.ps {
		var err error
		if sinks[w], err = relation.NewPartialAgg(p.it.Schema(), groupCols, specs); err != nil {
			return nil, err
		}
	}
	return relation.NewLazyScan(sinks[0].Schema(), func() []relation.Row {
		g.run(func(w, _ int) { sinks[w].Consume(g.ps[w].it) })
		for _, o := range sinks[1:] {
			sinks[0].Merge(o)
		}
		return sinks[0].Rows()
	}), nil
}
