package relation

import (
	"strconv"
	"sync"
	"sync/atomic"

	"flordb/internal/metrics"
)

// Page partials: Moerkotte's "small materialized aggregates" (VLDB 1998)
// kept beside the zone maps. Every complete page of a table is immutable
// (zonemap.go), so the partial aggregate of all its rows under one aggregate
// signature — group-key columns, then each aggregate's kind and argument
// column — is a fact about the page, true for every pin that sees the whole
// page. A table keeps, per signature, the partial of each complete page some
// statement needed; an eligible aggregate merges the stored partials of the
// pages it covers in full and decodes only the rest (DESIGN §13).
//
// The memo is never invalidated: tables are insert-only, and a page's
// partial is built from the page's rows alone, whatever statement asked for
// it. Page p's partial is used only when the pin sees all of page p, that is
// (p+1)·ZonePageRows ≤ the visible length; a page an AS OF pin or the live
// tail cuts short is decoded. A published partial is never mutated:
// PartialAgg.Merge reads the partial it merges.
//
// Two constant bounds keep the memo small beside the row store: a signature
// whose page partial holds more than memoMaxGroups groups is refused on that
// table (and the refusal remembered), and a table holds at most memoMaxSigs
// signatures, first come. A refusal holds no slot: it is a name in a set
// beside the memo's entries, so ad-hoc high-cardinality groupings cannot
// crowd out a signature the memo can serve.
const (
	memoMaxGroups = ZonePageRows / 16
	memoMaxSigs   = 8
)

// memoStats counts a database's page-partial work; tables outside a
// Database count into a private one. Database.RegisterMetrics publishes it.
type memoStats struct {
	reused, built, refusals metrics.Counter
	groups                  atomic.Int64 // groups held by published page partials
}

// aggMemo is a table's page-partial store, keyed by signature, and the set
// of signatures it refused.
type aggMemo struct {
	mu      sync.Mutex
	sigs    map[string]*memoEntry
	refused map[string]struct{}
}

// memoEntry holds one signature's page partials. Readers load pages without
// a lock; publishers serialize on mu and either fill a slot of the current
// slice or publish a longer copy.
type memoEntry struct {
	sig     string
	mu      sync.Mutex
	pages   atomic.Pointer[[]atomic.Pointer[PartialAgg]] // page-indexed; a nil slot is not built yet
	refused atomic.Bool
}

// entry returns the memo entry for sig, creating it while the table holds
// fewer than memoMaxSigs signatures; nil when sig was refused or there is no
// room for it.
func (m *aggMemo) entry(sig string, stats *memoStats) *memoEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.sigs[sig]; ok {
		return e
	}
	if _, ok := m.refused[sig]; ok {
		return nil
	}
	if len(m.sigs) >= memoMaxSigs {
		stats.refusals.Inc()
		return nil
	}
	if m.sigs == nil {
		m.sigs = make(map[string]*memoEntry)
	}
	e := &memoEntry{sig: sig}
	m.sigs[sig] = e
	return e
}

// refuse moves e's signature from the entries to the refused set, freeing
// its slot.
func (m *aggMemo) refuse(e *memoEntry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.sigs, e.sig)
	if m.refused == nil {
		m.refused = make(map[string]struct{})
	}
	m.refused[e.sig] = struct{}{}
}

// load returns page p's published partial, or nil.
func (e *memoEntry) load(p int) *PartialAgg {
	if s := e.pages.Load(); s != nil && p < len(*s) {
		return (*s)[p].Load()
	}
	return nil
}

// publish stores part as page p's partial, unless the signature is refused
// or part has too many groups (which refuses it on m, freeing its slot, and
// drops what the entry held). It returns page p's partial: another
// builder's equal one when that builder won the race, else part, which
// serves the caller's statement whether or not the memo kept it.
func (e *memoEntry) publish(m *aggMemo, p int, part *PartialAgg, stats *memoStats) *PartialAgg {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.refused.Load() {
		return part
	}
	if len(part.h.groups) > memoMaxGroups {
		e.refused.Store(true)
		m.refuse(e)
		stats.refusals.Inc()
		if s := e.pages.Load(); s != nil {
			for i := range *s {
				if old := (*s)[i].Load(); old != nil {
					stats.groups.Add(-int64(len(old.h.groups)))
				}
			}
		}
		e.pages.Store(nil)
		return part
	}
	s := e.pages.Load()
	if s == nil || p >= len(*s) {
		n := 2 * (p + 1)
		if s != nil {
			n = max(n, 2*len(*s))
		}
		grown := make([]atomic.Pointer[PartialAgg], n)
		if s != nil {
			for i := range *s {
				grown[i].Store((*s)[i].Load())
			}
		}
		e.pages.Store(&grown)
		s = &grown
	}
	if won := (*s)[p].Load(); won != nil {
		return won
	}
	(*s)[p].Store(part)
	stats.built.Inc()
	stats.groups.Add(int64(len(part.h.groups)))
	return part
}

// PageAggs is one aggregate statement's access to its table's page
// partials at one pin, shared by the statement's workers.
type PageAggs struct {
	v                *TableSnapshot
	e                *memoEntry // nil: the table has no room for the signature
	groupPos, argPos []int
	aggs             []AggSpec
	contains         func(*PageZone) bool
	zones            []PageZone
	scans            []*BatchScanOp // per worker: decodes the pages it builds
}

// PageAggs opens, for workers workers, the page partials of the aggregate
// that groups by the table columns groupCols and computes aggs, aggregate k
// over table column argCols[k] (-1 for count(*)). contains reports that
// every row of a page satisfies the statement's predicate; nil means every
// page does (no WHERE).
func (v *TableSnapshot) PageAggs(groupCols []int, aggs []AggSpec, argCols []int, contains func(*PageZone) bool, workers int) *PageAggs {
	sig := make([]byte, 0, 32)
	for _, c := range groupCols {
		sig = strconv.AppendInt(append(sig, 'g'), int64(c), 10)
	}
	for k, a := range aggs {
		sig = strconv.AppendInt(append(sig, 'a'), int64(a.Kind), 10)
		sig = strconv.AppendInt(append(sig, ':'), int64(argCols[k]), 10)
	}
	pa := &PageAggs{v: v, e: v.owner.memo.entry(string(sig), v.owner.stats),
		groupPos: groupCols, argPos: argCols, aggs: aggs, contains: contains, scans: make([]*BatchScanOp, workers)}
	if pa.e != nil && contains != nil {
		pa.zones = v.owner.zonePages(v.st)
	}
	return pa
}

// Partial returns, to worker w, the partial aggregate of every row of page p
// when the pin sees the whole page and contains accepts the page's zone,
// building and publishing it the first time any statement needs it. nil
// means the caller decodes the page: it is cut short, not contained, the
// signature has no memo on this table, or pa is nil (the statement has no
// page plan). Distinct workers may call it concurrently.
func (pa *PageAggs) Partial(w, p int) *PartialAgg {
	if pa == nil || pa.e == nil || (p+1)*ZonePageRows > pa.v.n || pa.e.refused.Load() {
		return nil
	}
	if pa.contains != nil && (p >= len(pa.zones) || !pa.contains(&pa.zones[p])) {
		return nil
	}
	stats := pa.v.owner.stats
	if part := pa.e.load(p); part != nil {
		stats.reused.Inc()
		return part
	}
	scan := pa.scans[w]
	if scan == nil {
		cols := append([]int{}, pa.groupPos...)
		for _, c := range pa.argPos {
			if c >= 0 {
				cols = append(cols, c)
			}
		}
		scan = NewBatchScan(pa.v, cols, ZonePageRows)
		pa.scans[w] = scan
	}
	part := &PartialAgg{h: newAggHash(), groupPos: pa.groupPos, aggPos: pa.argPos, aggs: pa.aggs}
	scan.SetRange(p*ZonePageRows, (p+1)*ZonePageRows)
	part.Consume(scan)
	return pa.e.publish(&pa.v.owner.memo, p, part, stats)
}
