package relation

import (
	"slices"
	"sort"
)

// PartialAgg is the batch pipeline's one aggregation sink. A serial
// statement drains its whole stream into a single PartialAgg and renders it;
// under a gather each scan worker drains its morsels into a private one (no
// locks, no sharing) and the coordinator merges the partials pairwise before
// rendering. One Consume loop serves both, so serial and parallel
// aggregation cannot diverge on per-row semantics; the merge contract below
// is what makes the split algebraically sound (DESIGN §9):
//
//   - count/sum partials add; avg merges as (sum, count) and divides once at
//     render time — never an average of averages;
//   - min/max merge by comparing the partials' extrema under the same total
//     order the serial path uses;
//   - the "saw any input row" flag ORs, so a global aggregate over an empty
//     table still renders exactly one zero/NULL row.
type PartialAgg struct {
	h        *aggHash
	groupPos []int
	aggPos   []int
	aggs     []AggSpec
	schema   *Schema
	keyOrder bool // render in encoded-key order: a partial was or may be folded in
}

// NewPartialAgg builds an aggregation sink over the projected input schema
// (group keys and aggregate arguments). With no groupBy columns it renders
// exactly one row (global aggregates).
func NewPartialAgg(in *Schema, groupBy []string, aggs []AggSpec) (*PartialAgg, error) {
	schema, groupPos, aggPos, err := groupSchema(in, groupBy, aggs)
	if err != nil {
		return nil, err
	}
	return &PartialAgg{h: newAggHash(), groupPos: groupPos, aggPos: aggPos, aggs: aggs, schema: schema}, nil
}

// Schema returns the aggregated output schema (group keys, then aggregates).
func (p *PartialAgg) Schema() *Schema { return p.schema }

// Consume drains a batch stream into the aggregate state, building group
// keys and updating aggregate states directly from column slices — no
// per-row allocation. It may be called repeatedly (once per morsel); states
// accumulate.
func (p *PartialAgg) Consume(in BatchIterator) {
	h, aggs := p.h, p.aggs
	var keyBuf []byte
	// Per-batch column slices, hoisted so the per-row loop does no
	// double-indexed Cols lookups.
	gcols := make([][]Value, len(p.groupPos))
	acols := make([][]Value, len(aggs))
	for {
		b, ok := in.NextBatch()
		if !ok {
			return
		}
		h.sawAny = h.sawAny || len(b.Sel) > 0
		for k, pos := range p.groupPos {
			gcols[k] = b.Cols[pos]
		}
		for k, pos := range p.aggPos {
			if pos >= 0 {
				acols[k] = b.Cols[pos]
			}
		}
		for _, i := range b.Sel {
			keyBuf = keyBuf[:0]
			for _, col := range gcols {
				keyBuf = col[i].appendKey(keyBuf)
				keyBuf = append(keyBuf, '\x1f')
			}
			grp := h.find(keyBuf)
			if grp == nil {
				keyRow := make(Row, len(gcols))
				for k, col := range gcols {
					keyRow[k] = col[i]
				}
				grp = &aggGroup{key: keyRow, states: make([]aggState, len(aggs))}
				h.insert(keyBuf, grp)
			}
			for k := range aggs {
				if aggs[k].Kind == AggCountStar {
					grp.states[k].count++
					continue
				}
				grp.states[k].observe(aggs[k].Kind, &acols[k][i])
			}
		}
	}
}

// Merge folds o's groups into p. o must aggregate the same spec over a
// schema of the same layout; it is only read: groups p lacks are copied in,
// never adopted, so o may be merged again — a worker's partial once, a page
// partial of the table memo into every statement that covers its page
// (pagememo.go). Groups are visited in o's first-seen slice order, never by
// map iteration, so repeated merges of the same partials are deterministic.
func (p *PartialAgg) Merge(o *PartialAgg) {
	p.keyOrder = true
	p.h.sawAny = p.h.sawAny || o.h.sawAny
	for idx, grp := range o.h.groups {
		key := []byte(o.h.keys[idx])
		dst := p.h.find(key)
		if dst == nil {
			p.h.insert(key, &aggGroup{key: grp.key, states: slices.Clone(grp.states)})
			continue
		}
		for k := range p.aggs {
			mergeAggState(&dst.states[k], &grp.states[k], p.aggs[k].Kind)
		}
	}
}

// mergeAggState folds partial state o into dst for one aggregate kind.
func mergeAggState(dst, o *aggState, kind AggKind) {
	switch kind {
	case AggCount, AggCountStar:
		dst.count += o.count
	case AggSum, AggAvg:
		dst.count += o.count
		dst.sum += o.sum
	case AggMin:
		if o.seen && (!dst.seen || comparePtr(&o.min, &dst.min) < 0) {
			dst.min = o.min
			dst.seen = true
		}
	case AggMax:
		if o.seen && (!dst.seen || comparePtr(&o.max, &dst.max) > 0) {
			dst.max = o.max
			dst.seen = true
		}
	}
}

// RenderInKeyOrder makes Rows order the groups by encoded key, as after a
// merge, even if nothing is merged: a statement whose sink may or may not
// take partials (page partials, pagememo.go) then renders one order however
// many it took.
func (p *PartialAgg) RenderInKeyOrder() { p.keyOrder = true }

// Rows renders the groups. A sink nothing was merged into emits them in
// first-seen order, exactly as the row Group does. After a merge, worker
// scheduling has made first-seen order nondeterministic across runs, so the
// groups are ordered by encoded key instead — a deterministic permutation of
// the serial output (row-multiset-equal; queries that need a specific order
// say ORDER BY, which sorts downstream either way).
func (p *PartialAgg) Rows() []Row {
	h := p.h
	if p.keyOrder {
		idx := make([]int, len(h.groups))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool { return h.keys[idx[a]] < h.keys[idx[b]] })
		keys := make([]string, len(h.groups))
		groups := make([]*aggGroup, len(h.groups))
		for i, j := range idx {
			keys[i], groups[i] = h.keys[j], h.groups[j]
		}
		h.keys, h.groups = keys, groups
	}
	// finish appends the empty-input global-aggregate row (if needed).
	return h.finish(len(p.groupPos), p.aggs)
}
