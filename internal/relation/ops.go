package relation

import (
	"fmt"
	"iter"
	"slices"
)

// ---------- Index access paths ----------

// NewIndexLookup builds the equality-index access path over the hash index
// covering cols: each entry of keys is one full key tuple (multiple tuples
// serve IN-list plans). The lookup resolves lazily on the first NextBatch,
// filtering candidate ids through the pinned table's visibility, and gathers
// the needed columns (nil = all) of the matching rows into batches. A
// non-nil zf is the zone filter of the residual predicate the caller still
// applies: candidates on a complete page whose zone it rules out are dropped
// before any row is resolved. It fails if no such index exists.
func NewIndexLookup(t *TableSnapshot, cols []string, keys [][]Value, needed []int, zf ZoneFilter) (*BatchScanOp, error) {
	ix, ok := t.HashIndexOn(cols...)
	if !ok {
		return nil, fmt.Errorf("relation: table %s has no hash index on %v", t.Name(), cols)
	}
	for _, k := range keys {
		if len(k) != len(cols) {
			return nil, fmt.Errorf("relation: index lookup key arity %d != %d", len(k), len(cols))
		}
	}
	return NewBatchRows(t.Schema(), func() []Row {
		var ids []RowID
		for _, k := range keys {
			ids = append(ids, ix.Lookup(k...)...)
		}
		if zf != nil {
			ids = t.dropByZone(ids, zf)
		}
		return t.RowsByIDs(ids)
	}, needed, 0), nil
}

// dropByZone removes, in place, the ids on a complete page whose zone zf
// rules out. The zone bounds every row of its page, so no dropped row could
// pass zf's predicate; ids past the visible prefix are left to RowsByIDs.
func (v *TableSnapshot) dropByZone(ids []RowID, zf ZoneFilter) []RowID {
	zones := v.owner.zonePages(v.st)
	out := ids[:0]
	for _, id := range ids {
		if p := int(id) / ZonePageRows; p < len(zones) && zf(&zones[p]) {
			continue
		}
		out = append(out, id)
	}
	return out
}

// The row functions. Every row stream is a lazy iter.Seq[Row]: nothing runs
// until the sequence is ranged, and a consumer that stops ranging stops the
// producer, so rows past a LIMIT never reach an expression (DESIGN §4). The
// planned path uses them above its batch pipeline; the reference executor is
// built from them alone. Rows a sequence yields must not be mutated.

// lazyRows yields the rows src resolves when the sequence is ranged: a
// pinned table's visible rows or a virtual table's rows.
func lazyRows(src func() []Row) iter.Seq[Row] {
	return func(yield func(Row) bool) {
		for _, r := range src() {
			if !yield(r) {
				return
			}
		}
	}
}

// ---------- Filter ----------

// Predicate decides whether a row passes a filter.
type Predicate func(Row) bool

// Filter yields the rows of in that satisfy pred.
func Filter(in iter.Seq[Row], pred Predicate) iter.Seq[Row] {
	return func(yield func(Row) bool) {
		for r := range in {
			if pred(r) && !yield(r) {
				return
			}
		}
	}
}

// ---------- Project ----------

// ProjExpr computes one output column from an input row.
type ProjExpr struct {
	Name string
	Type Type
	Eval func(Row) Value
}

// Project maps the rows of in through exprs, one freshly allocated row each,
// and returns the output schema.
func Project(in iter.Seq[Row], exprs []ProjExpr) (*Schema, iter.Seq[Row], error) {
	cols := make([]Column, len(exprs))
	for i, e := range exprs {
		cols[i] = Column{Name: e.Name, Type: e.Type}
	}
	s, err := NewSchema(cols...)
	if err != nil {
		return nil, nil, err
	}
	return s, func(yield func(Row) bool) {
		for r := range in {
			out := make(Row, len(exprs))
			for i, e := range exprs {
				out[i] = e.Eval(r)
			}
			if !yield(out) {
				return
			}
		}
	}, nil
}

// ---------- Hash Join ----------

// HashJoin is an equi-join on leftCols[i] == rightCols[i]: the right (build)
// rows are drained into a hash table each time the sequence is ranged, and
// the left (probe) rows stream through it. Output rows are left ++ right; the
// output schema qualifies colliding right columns with rightQualifier. It is
// the reference the batch join (which can build on either side) is tested
// against.
func HashJoin(left *Schema, probe iter.Seq[Row], right *Schema, build iter.Seq[Row], leftCols, rightCols []string, rightQualifier string) (*Schema, iter.Seq[Row], error) {
	if len(leftCols) != len(rightCols) || len(leftCols) == 0 {
		return nil, nil, fmt.Errorf("relation: join requires equal, non-empty key lists")
	}
	lpos, err := columnPositions(left, leftCols, "join: left")
	if err != nil {
		return nil, nil, err
	}
	rpos, err := columnPositions(right, rightCols, "join: right")
	if err != nil {
		return nil, nil, err
	}
	schema, err := Concat(left, right, rightQualifier)
	if err != nil {
		return nil, nil, err
	}
	return schema, func(yield func(Row) bool) {
		var keyBuf []byte
		built := make(map[string][]Row)
		for r := range build {
			key, ok := appendJoinKey(keyBuf[:0], r, rpos)
			keyBuf = key
			if ok {
				built[string(key)] = append(built[string(key)], r)
			}
		}
		for p := range probe {
			key, ok := appendJoinKey(keyBuf[:0], p, lpos)
			keyBuf = key
			if !ok {
				continue
			}
			for _, b := range built[string(key)] {
				out := make(Row, 0, len(p)+len(b))
				out = append(out, p...)
				if !yield(append(out, b...)) {
					return
				}
			}
		}
	}, nil
}

// columnPositions resolves names against s.
func columnPositions(s *Schema, names []string, what string) ([]int, error) {
	pos := make([]int, len(names))
	for i, c := range names {
		if pos[i] = s.Index(c); pos[i] < 0 {
			return nil, fmt.Errorf("relation: %s has no column %q", what, c)
		}
	}
	return pos, nil
}

// appendJoinKey builds the join key for a row into dst; ok is false when any
// key column is NULL (NULL keys never match).
func appendJoinKey(dst []byte, r Row, pos []int) (_ []byte, ok bool) {
	for _, p := range pos {
		if r[p].IsNull() {
			return dst, false
		}
		dst = r[p].AppendKey(dst)
		dst = append(dst, '\x1f')
	}
	return dst, true
}

// ---------- Sort ----------

// SortKey is one ORDER BY term: a column position and its direction.
type SortKey struct {
	Pos  int
	Desc bool
}

// Sort collects in and yields it stably ordered by keys.
func Sort(in iter.Seq[Row], keys []SortKey) iter.Seq[Row] {
	return lazyRows(func() []Row {
		rows := slices.Collect(in)
		slices.SortStableFunc(rows, func(a, b Row) int {
			for _, k := range keys {
				if c := Compare(a[k.Pos], b[k.Pos]); c != 0 {
					if k.Desc {
						return -c
					}
					return c
				}
			}
			return 0
		})
		return rows
	})
}

// ---------- Limit / Offset ----------

// Limit yields at most limit rows of in after skipping offset rows; a
// negative limit means unlimited. It pulls no row past the last one it
// yields or skips.
func Limit(in iter.Seq[Row], limit, offset int64) iter.Seq[Row] {
	return func(yield func(Row) bool) {
		if limit == 0 && offset == 0 {
			return
		}
		var n int64
		for r := range in {
			n++
			if (n > offset && !yield(r)) || (limit >= 0 && n == offset+limit) {
				return
			}
		}
	}
}

// ---------- Aggregate ----------

// AggKind enumerates supported aggregate functions.
type AggKind int

// Aggregate kinds.
const (
	AggCount AggKind = iota
	AggCountStar
	AggSum
	AggAvg
	AggMin
	AggMax
)

// AggSpec is one aggregate output.
type AggSpec struct {
	Kind AggKind
	Col  string // ignored for AggCountStar
	As   string
}

type aggState struct {
	count int64
	sum   float64
	min   Value
	max   Value
	seen  bool
}

// observe folds one non-NULL candidate value into the state, doing only the
// work the aggregate kind needs. NULLs are ignored (SQL aggregates skip
// them); AggCountStar never reaches here — callers bump count directly. The
// pointer receiver and operand keep 56-byte Value copies off the hot loop.
func (st *aggState) observe(kind AggKind, v *Value) {
	if v.IsNull() {
		return
	}
	switch kind {
	case AggCount:
		st.count++
	case AggSum, AggAvg:
		st.count++
		if v.IsNumeric() {
			st.sum += v.AsFloat()
		}
	case AggMin:
		if !st.seen || comparePtr(v, &st.min) < 0 {
			st.min = *v
		}
		st.seen = true
	case AggMax:
		if !st.seen || comparePtr(v, &st.max) > 0 {
			st.max = *v
		}
		st.seen = true
	}
}

// aggGroup is one group's key tuple and per-aggregate states.
type aggGroup struct {
	key    Row
	states []aggState
}

// aggHash accumulates groups in first-seen order; Group and PartialAgg
// share it so the reference and the batch pipeline cannot diverge. It is a small
// open-addressing table keyed by the encoded group-key bytes: group-by keys
// are short (a tag byte plus payload per column) and looked up once per
// input row, so an inlined FNV-1a hash plus linear probing beats the
// general-purpose map it replaced by about 2x per row.
type aggHash struct {
	keys   []string    // encoded key per group, aligned with groups
	groups []*aggGroup // first-seen order
	table  []int32     // open addressing; entry = group index + 1, 0 = empty
	mask   uint64
	sawAny bool
}

func newAggHash() *aggHash {
	return &aggHash{table: make([]int32, 64), mask: 63}
}

func hashKeyBytes(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// find returns the group for the encoded key, or nil when unseen.
func (h *aggHash) find(key []byte) *aggGroup {
	i := hashKeyBytes(key) & h.mask
	for {
		slot := h.table[i]
		if slot == 0 {
			return nil
		}
		if h.keys[slot-1] == string(key) {
			return h.groups[slot-1]
		}
		i = (i + 1) & h.mask
	}
}

// insert adds a group under the encoded key, which must not be present.
func (h *aggHash) insert(key []byte, grp *aggGroup) {
	if len(h.groups)+1 > len(h.table)*3/4 {
		h.grow()
	}
	h.keys = append(h.keys, string(key))
	h.groups = append(h.groups, grp)
	i := hashKeyBytes(key) & h.mask
	for h.table[i] != 0 {
		i = (i + 1) & h.mask
	}
	h.table[i] = int32(len(h.groups))
}

func (h *aggHash) grow() {
	h.table = make([]int32, len(h.table)*2)
	h.mask = uint64(len(h.table) - 1)
	for idx, k := range h.keys {
		i := hashKeyBytes([]byte(k)) & h.mask
		for h.table[i] != 0 {
			i = (i + 1) & h.mask
		}
		h.table[i] = int32(idx + 1)
	}
}

// finish renders the accumulated groups as output rows. A global aggregate
// (no group columns) over empty input yields one row of zero/NULL.
func (h *aggHash) finish(groupCols int, aggs []AggSpec) []Row {
	if groupCols == 0 && !h.sawAny {
		h.groups = append(h.groups, &aggGroup{key: Row{}, states: make([]aggState, len(aggs))})
	}
	out := make([]Row, 0, len(h.groups))
	for _, grp := range h.groups {
		row := make(Row, 0, len(grp.key)+len(aggs))
		row = append(row, grp.key...)
		for i, a := range aggs {
			st := grp.states[i]
			switch a.Kind {
			case AggCount, AggCountStar:
				row = append(row, Int(st.count))
			case AggSum:
				if st.count == 0 {
					row = append(row, Null())
				} else {
					row = append(row, Float(st.sum))
				}
			case AggAvg:
				if st.count == 0 {
					row = append(row, Null())
				} else {
					row = append(row, Float(st.sum/float64(st.count)))
				}
			case AggMin:
				if !st.seen {
					row = append(row, Null())
				} else {
					row = append(row, st.min)
				}
			case AggMax:
				if !st.seen {
					row = append(row, Null())
				} else {
					row = append(row, st.max)
				}
			}
		}
		out = append(out, row)
	}
	return out
}

// Group is hash aggregation over rows of schema in, with optional grouping
// columns: it drains rows when the sequence is ranged and yields the groups
// in first-seen order. It returns the output schema (group keys, then one
// column per aggregate). With no groupBy columns it yields exactly one row
// (global aggregates).
func Group(in *Schema, rows iter.Seq[Row], groupBy []string, aggs []AggSpec) (*Schema, iter.Seq[Row], error) {
	schema, groupPos, aggPos, err := groupSchema(in, groupBy, aggs)
	if err != nil {
		return nil, nil, err
	}
	return schema, lazyRows(func() []Row {
		h := newAggHash()
		var keyBuf []byte
		for r := range rows {
			h.sawAny = true
			keyBuf = keyBuf[:0]
			for _, p := range groupPos {
				keyBuf = r[p].AppendKey(keyBuf)
				keyBuf = append(keyBuf, '\x1f')
			}
			grp := h.find(keyBuf)
			if grp == nil {
				keyRow := make(Row, len(groupPos))
				for i, p := range groupPos {
					keyRow[i] = r[p]
				}
				grp = &aggGroup{key: keyRow, states: make([]aggState, len(aggs))}
				h.insert(keyBuf, grp)
			}
			for i, a := range aggs {
				if a.Kind == AggCountStar {
					grp.states[i].count++
					continue
				}
				grp.states[i].observe(a.Kind, &r[aggPos[i]])
			}
		}
		return h.finish(len(groupPos), aggs)
	}), nil
}

// groupSchema resolves the grouping columns and aggregate arguments against
// the input schema and builds the output schema (group keys first, then one
// column per aggregate). Group and PartialAgg share it.
func groupSchema(in *Schema, groupBy []string, aggs []AggSpec) (*Schema, []int, []int, error) {
	var cols []Column
	var groupPos, aggPos []int
	for _, c := range groupBy {
		p := in.Index(c)
		if p < 0 {
			return nil, nil, nil, fmt.Errorf("relation: group: no column %q", c)
		}
		groupPos = append(groupPos, p)
		cols = append(cols, in.Col(p))
	}
	for _, a := range aggs {
		p := -1
		if a.Kind != AggCountStar {
			p = in.Index(a.Col)
			if p < 0 {
				return nil, nil, nil, fmt.Errorf("relation: aggregate: no column %q", a.Col)
			}
		}
		aggPos = append(aggPos, p)
		name := a.As
		if name == "" {
			name = aggName(a)
		}
		typ := TFloat
		switch a.Kind {
		case AggCount, AggCountStar:
			typ = TInt
		case AggMin, AggMax:
			if p >= 0 {
				typ = in.Col(p).Type
			}
		}
		cols = append(cols, Column{Name: name, Type: typ})
	}
	s, err := NewSchema(cols...)
	if err != nil {
		return nil, nil, nil, err
	}
	return s, groupPos, aggPos, nil
}

func aggName(a AggSpec) string {
	switch a.Kind {
	case AggCountStar:
		return "count(*)"
	case AggCount:
		return "count(" + a.Col + ")"
	case AggSum:
		return "sum(" + a.Col + ")"
	case AggAvg:
		return "avg(" + a.Col + ")"
	case AggMin:
		return "min(" + a.Col + ")"
	case AggMax:
		return "max(" + a.Col + ")"
	}
	return "agg"
}

// ---------- Distinct ----------

// Distinct yields the rows of in with duplicates (by full-row key) removed.
func Distinct(in iter.Seq[Row]) iter.Seq[Row] {
	return func(yield func(Row) bool) {
		seen := make(map[string]struct{})
		var keyBuf []byte
		for r := range in {
			keyBuf = keyBuf[:0]
			for _, v := range r {
				keyBuf = v.AppendKey(keyBuf)
				keyBuf = append(keyBuf, '\x1f')
			}
			if _, dup := seen[string(keyBuf)]; dup {
				continue
			}
			seen[string(keyBuf)] = struct{}{}
			if !yield(r) {
				return
			}
		}
	}
}
