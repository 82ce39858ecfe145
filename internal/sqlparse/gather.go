package sqlparse

import (
	"fmt"
	"iter"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"flordb/internal/relation"
)

// Gather: parallelism as a plan node. A statement's batch pipeline is built
// by a factory; serial execution calls it once. When the pipeline bottoms out
// in a full table scan (stream.scan) and the gather rule below allows it, the
// factory is called once per worker instead, the row-store prefix the scan
// sees is carved into page-aligned morsels, and workers claim morsels from a
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
//     state semantics as a serial scan (each walks no further than the
//     visible prefix of its own pinned state), so AS OF pins and in-flight
//     rows filter identically.
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
	// Morsels cover the row-store prefix visible to the scan. The store is
	// append-only: a range valid against this scan's state is valid against
	// every worker's.
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

// run drives every pipeline to completion; drain(w, lo, hi) consumes what
// pipeline w produces for row-store positions [lo, hi), the range its scan
// is armed with. The serial pipeline runs whole, on the calling goroutine,
// over [0, the visible length) — [0, 0) when it reads no table scan.
func (g *gather) run(drain func(w, lo, hi int)) {
	if g.morsels == 0 {
		hi := 0
		if s := g.ps[0].scan; s != nil {
			hi = s.StoreLen()
		}
		drain(0, 0, hi)
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
				lo, hi := m*morselRows, min((m+1)*morselRows, storeLen)
				g.ps[w].scan.SetRange(lo, hi)
				drain(w, lo, hi)
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

// rows is the pipelines' batch-to-row boundary. The serial pipeline streams
// through it (so a LIMIT stops the scan early); a parallel gather runs its
// workers only when the sequence is ranged — EXPLAIN never ranges it — and
// yields the morsels' rows in morsel order, which is row-store order.
func (g *gather) rows() iter.Seq[relation.Row] {
	if g.morsels == 0 {
		return relation.RowsOf(g.ps[0].it)
	}
	return func(yield func(relation.Row) bool) {
		out := make([][]relation.Row, g.morsels)
		g.run(func(w, lo, _ int) { out[lo/morselRows] = slices.Collect(relation.RowsOf(g.ps[w].it)) })
		for _, rs := range out {
			for _, r := range rs {
				if !yield(r) {
					return
				}
			}
		}
	}
}

// aggregate sinks every pipeline into its own relation.PartialAgg and
// returns the aggregated schema and row sequence: the one sink rendered as
// is when serial, the workers' partials merged and rendered in key order
// otherwise. With a pagePlan, each pipeline walks its range page by page
// (walkPages), merging the stored partials of the pages the plan covers in
// full; the sink then renders in key order too, whether or not a page was
// merged. Like rows, nothing runs until the sequence is ranged.
func (g *gather) aggregate(groupCols []string, specs []relation.AggSpec, pages *pagePlan) (*relation.Schema, iter.Seq[relation.Row], error) {
	sinks := make([]*relation.PartialAgg, len(g.ps))
	for w, p := range g.ps {
		var err error
		if sinks[w], err = relation.NewPartialAgg(p.it.Schema(), groupCols, specs); err != nil {
			return nil, nil, err
		}
	}
	return sinks[0].Schema(), func(yield func(relation.Row) bool) {
		var memo *relation.PageAggs
		if pages != nil {
			memo = pages.table.PageAggs(pages.groupPos, specs, pages.argPos, pages.contains, len(g.ps))
			sinks[0].RenderInKeyOrder()
		}
		g.run(func(w, lo, hi int) { walkPages(sinks[w], g.ps[w], memo, w, lo, hi) })
		for _, o := range sinks[1:] {
			sinks[0].Merge(o)
		}
		for _, r := range sinks[0].Rows() {
			if !yield(r) {
				return
			}
		}
	}, nil
}

// walkPages drains row-store positions [lo, hi) of worker w's pipeline p —
// the range its scan is armed with — into sink page by page. A page memo
// hands a partial for is contained: its partial is merged. Every run of
// other pages is decoded through the pipeline, whose scan still prunes the
// pages its zone filter rules out. With no page merged (a nil memo among
// them) the pipeline is drained as armed, scan or not.
func walkPages(sink *relation.PartialAgg, p stream, memo *relation.PageAggs, w, lo, hi int) {
	decoded := lo // start of the run of pages not yet drained
	for pg := lo / relation.ZonePageRows; pg*relation.ZonePageRows < hi; pg++ {
		part := memo.Partial(w, pg)
		if part == nil {
			continue
		}
		if start := pg * relation.ZonePageRows; decoded < start {
			p.scan.SetRange(decoded, start)
			sink.Consume(p.it)
		}
		sink.Merge(part)
		decoded = (pg + 1) * relation.ZonePageRows
	}
	if decoded > lo {
		p.scan.SetRange(decoded, hi)
	}
	sink.Consume(p.it)
}

// pagePlan is an aggregate statement stored page partials can serve
// (planPages): its table, the table positions of its group keys and of each
// aggregate's argument (-1 for count(*)), and the containment test of its
// WHERE (nil without one: every page is contained).
type pagePlan struct {
	table            *relation.TableSnapshot
	groupPos, argPos []int
	contains         func(*relation.PageZone) bool
}

// planPages decides whether an aggregate may merge its table's stored page
// partials (relation.PageAggs), and returns nil when it may not. It may when
// it reads one base table through a full scan with no join; when every
// pre-projection item — group key or aggregate argument — is a plain column
// of that table; when it has no LIMIT or OFFSET (merged partials render in
// key order; gatherWidth's rule); and when its WHERE, if any, passes the
// classified-shape gate with a containment test (binder.zoneContains). Any
// aggregate kind qualifies: sum and avg then add floats in another order,
// as under a gather.
func planPages(cat *relation.Snapshot, stmt *SelectStmt, ap *aggPlan, scan *relation.BatchScanOp) *pagePlan {
	if scan == nil || len(stmt.Joins) > 0 || stmt.Limit >= 0 || stmt.Offset > 0 {
		return nil
	}
	t, ok := cat.Table(stmt.From.Name)
	if !ok {
		return nil
	}
	b := binder{schema: t.Schema()}
	pos := make([]int, len(ap.pre))
	for i, it := range ap.pre {
		ref, ok := it.expr.(*ColumnRef)
		if !ok {
			return nil
		}
		var err error
		if pos[i], err = b.resolve(ref); err != nil {
			return nil
		}
	}
	pp := &pagePlan{table: t, groupPos: pos[:len(ap.groupCols)]}
	args := pos[len(ap.groupCols):]
	for _, spec := range ap.specs {
		if spec.Kind == relation.AggCountStar {
			pp.argPos = append(pp.argPos, -1)
			continue
		}
		pp.argPos = append(pp.argPos, args[0])
		args = args[1:]
	}
	if stmt.Where != nil {
		if pp.contains, ok = b.zoneContains(stmt.Where); !ok || pp.contains == nil {
			return nil
		}
	}
	return pp
}
