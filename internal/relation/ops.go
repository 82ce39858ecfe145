package relation

import (
	"fmt"
	"sort"
)

// Iterator is the volcano-style operator interface. Next returns the next
// row or (nil, false) at end of stream. Rows returned by Next must not be
// mutated by callers.
type Iterator interface {
	Schema() *Schema
	Next() (Row, bool)
}

// Collect drains an iterator into a slice.
func Collect(it Iterator) []Row {
	var out []Row
	for {
		r, ok := it.Next()
		if !ok {
			return out
		}
		out = append(out, r)
	}
}

// ---------- Scan ----------

// ScanOp iterates a table snapshot in insertion order. The snapshot is taken
// lazily on the first Next call, so building an operator tree (e.g. for
// EXPLAIN) costs nothing.
type ScanOp struct {
	schema *Schema
	src    func() []Row // nil once materialized
	rows   []Row
	i      int
}

// NewScan returns a scan operator over a table read surface (a live table or
// a pinned snapshot); rows materialize on first Next.
func NewScan(t TableReader) *ScanOp {
	return &ScanOp{schema: t.Schema(), src: t.Rows}
}

// NewLazyScan wraps a row producer that is invoked on first Next; virtual
// tables use it so EXPLAIN does not materialize them.
func NewLazyScan(schema *Schema, src func() []Row) *ScanOp {
	return &ScanOp{schema: schema, src: src}
}

// Schema implements Iterator.
func (s *ScanOp) Schema() *Schema { return s.schema }

// Next implements Iterator.
func (s *ScanOp) Next() (Row, bool) {
	if s.src != nil {
		s.rows = s.src()
		s.src = nil
	}
	if s.i >= len(s.rows) {
		return nil, false
	}
	r := s.rows[s.i]
	s.i++
	return r, true
}

// ---------- Index access paths ----------

// NewIndexLookup builds the equality-index access path over the hash index
// covering cols: each entry of keys is one full key tuple (multiple tuples
// serve IN-list plans). The lookup resolves lazily on the first NextBatch,
// filtering candidate ids through the reader's row visibility, and gathers
// the needed columns (nil = all) of the matching rows into batches. It fails
// if no such index exists.
func NewIndexLookup(t TableReader, cols []string, keys [][]Value, needed []int) (*BatchScanOp, error) {
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
		return t.RowsByIDs(ids)
	}, needed, 0), nil
}

// NewIndexRange builds the range-index access path over the ordered index on
// col, producing matching rows in ascending value order. NULL bounds mean
// unbounded; NULL-valued rows are never produced. The range resolves lazily
// on the first NextBatch, filtering candidate ids through the reader's
// visibility, and gathers the needed columns (nil = all) into batches.
func NewIndexRange(t TableReader, col string, lo, hi Value, loIncl, hiIncl bool, needed []int) (*BatchScanOp, error) {
	ix, ok := t.OrderedIndexOn(col)
	if !ok {
		return nil, fmt.Errorf("relation: table %s has no ordered index on %s", t.Name(), col)
	}
	return NewBatchRows(t.Schema(), func() []Row {
		return t.RowsByIDs(ix.RangeBounds(lo, hi, loIncl, hiIncl))
	}, needed, 0), nil
}

// ---------- Filter ----------

// Predicate decides whether a row passes a filter.
type Predicate func(Row) bool

// FilterOp passes through rows satisfying a predicate.
type FilterOp struct {
	in   Iterator
	pred Predicate
}

// NewFilter wraps an iterator with a predicate.
func NewFilter(in Iterator, pred Predicate) *FilterOp {
	return &FilterOp{in: in, pred: pred}
}

// Schema implements Iterator.
func (f *FilterOp) Schema() *Schema { return f.in.Schema() }

// Next implements Iterator.
func (f *FilterOp) Next() (Row, bool) {
	for {
		r, ok := f.in.Next()
		if !ok {
			return nil, false
		}
		if f.pred(r) {
			return r, true
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

// ProjectOp maps input rows through a list of expressions.
type ProjectOp struct {
	in     Iterator
	exprs  []ProjExpr
	schema *Schema
}

// NewProject builds a projection operator.
func NewProject(in Iterator, exprs []ProjExpr) (*ProjectOp, error) {
	cols := make([]Column, len(exprs))
	for i, e := range exprs {
		cols[i] = Column{Name: e.Name, Type: e.Type}
	}
	s, err := NewSchema(cols...)
	if err != nil {
		return nil, err
	}
	return &ProjectOp{in: in, exprs: exprs, schema: s}, nil
}

// Schema implements Iterator.
func (p *ProjectOp) Schema() *Schema { return p.schema }

// Next implements Iterator.
func (p *ProjectOp) Next() (Row, bool) {
	r, ok := p.in.Next()
	if !ok {
		return nil, false
	}
	out := make(Row, len(p.exprs))
	for i, e := range p.exprs {
		out[i] = e.Eval(r)
	}
	return out, true
}

// ---------- Hash Join ----------

// HashJoinOp implements an equi-join: the right (build) side is materialized
// into a hash table keyed on the build columns; the left (probe) side
// streams. The build happens lazily on the first Next, so constructing the
// operator under a LIMIT that is never reached costs nothing. It is the
// reference the batch join (which can build on either side) is tested
// against.
type HashJoinOp struct {
	probe     Iterator
	buildSrc  Iterator // drained into buildRows on first Next
	buildRows map[string][]Row
	probeCols []int
	buildCols []int
	schema    *Schema
	built     bool
	pending   []Row
	keyBuf    []byte
}

// NewHashJoin joins left (probe) to right (build) on leftCols[i] == rightCols[i].
func NewHashJoin(left, right Iterator, leftCols, rightCols []string, rightQualifier string) (*HashJoinOp, error) {
	if len(leftCols) != len(rightCols) || len(leftCols) == 0 {
		return nil, fmt.Errorf("relation: join requires equal, non-empty key lists")
	}
	lpos := make([]int, len(leftCols))
	for i, c := range leftCols {
		p := left.Schema().Index(c)
		if p < 0 {
			return nil, fmt.Errorf("relation: join: left has no column %q", c)
		}
		lpos[i] = p
	}
	rpos := make([]int, len(rightCols))
	for i, c := range rightCols {
		p := right.Schema().Index(c)
		if p < 0 {
			return nil, fmt.Errorf("relation: join: right has no column %q", c)
		}
		rpos[i] = p
	}
	schema, err := Concat(left.Schema(), right.Schema(), rightQualifier)
	if err != nil {
		return nil, err
	}
	return &HashJoinOp{schema: schema, probe: left, probeCols: lpos, buildSrc: right, buildCols: rpos}, nil
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

// Schema implements Iterator.
func (j *HashJoinOp) Schema() *Schema { return j.schema }

// Next implements Iterator.
func (j *HashJoinOp) Next() (Row, bool) {
	if !j.built {
		j.buildRows = make(map[string][]Row)
		for {
			r, ok := j.buildSrc.Next()
			if !ok {
				break
			}
			key, ok := appendJoinKey(j.keyBuf[:0], r, j.buildCols)
			j.keyBuf = key
			if !ok {
				continue
			}
			j.buildRows[string(key)] = append(j.buildRows[string(key)], r)
		}
		j.built = true
	}
	for {
		if len(j.pending) > 0 {
			r := j.pending[0]
			j.pending = j.pending[1:]
			return r, true
		}
		p, ok := j.probe.Next()
		if !ok {
			return nil, false
		}
		key, ok := appendJoinKey(j.keyBuf[:0], p, j.probeCols)
		j.keyBuf = key
		if !ok {
			continue
		}
		for _, b := range j.buildRows[string(key)] {
			out := make(Row, 0, len(p)+len(b))
			out = append(out, p...)
			out = append(out, b...)
			j.pending = append(j.pending, out)
		}
	}
}

// ---------- Sort ----------

// SortKey is one ORDER BY term.
type SortKey struct {
	Col  string
	Desc bool
}

// SortOp fully materializes its input and emits it ordered.
type SortOp struct {
	in     Iterator
	keys   []SortKey
	rows   []Row
	sorted bool
	i      int
}

// NewSort builds a sort operator over the given keys.
func NewSort(in Iterator, keys []SortKey) (*SortOp, error) {
	for _, k := range keys {
		if in.Schema().Index(k.Col) < 0 {
			return nil, fmt.Errorf("relation: sort: no column %q", k.Col)
		}
	}
	return &SortOp{in: in, keys: keys}, nil
}

// Schema implements Iterator.
func (s *SortOp) Schema() *Schema { return s.in.Schema() }

// Next implements Iterator.
func (s *SortOp) Next() (Row, bool) {
	if !s.sorted {
		s.rows = Collect(s.in)
		pos := make([]int, len(s.keys))
		for i, k := range s.keys {
			pos[i] = s.in.Schema().Index(k.Col)
		}
		sort.SliceStable(s.rows, func(a, b int) bool {
			for i, k := range s.keys {
				c := Compare(s.rows[a][pos[i]], s.rows[b][pos[i]])
				if c == 0 {
					continue
				}
				if k.Desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
		s.sorted = true
	}
	if s.i >= len(s.rows) {
		return nil, false
	}
	r := s.rows[s.i]
	s.i++
	return r, true
}

// ---------- Limit / Offset ----------

// LimitOp emits at most n rows after skipping offset rows. A negative limit
// means unlimited.
type LimitOp struct {
	in      Iterator
	limit   int64
	offset  int64
	emitted int64
	skipped int64
}

// NewLimit builds a limit/offset operator.
func NewLimit(in Iterator, limit, offset int64) *LimitOp {
	return &LimitOp{in: in, limit: limit, offset: offset}
}

// Schema implements Iterator.
func (l *LimitOp) Schema() *Schema { return l.in.Schema() }

// Next implements Iterator.
func (l *LimitOp) Next() (Row, bool) {
	for l.skipped < l.offset {
		if _, ok := l.in.Next(); !ok {
			return nil, false
		}
		l.skipped++
	}
	if l.limit >= 0 && l.emitted >= l.limit {
		return nil, false
	}
	r, ok := l.in.Next()
	if !ok {
		return nil, false
	}
	l.emitted++
	return r, true
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

// aggHash accumulates groups in first-seen order; GroupOp and PartialAgg
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

// GroupOp implements hash aggregation with optional grouping columns.
type GroupOp struct {
	in       Iterator
	groupBy  []string
	aggs     []AggSpec
	schema   *Schema
	results  []Row
	done     bool
	i        int
	groupPos []int
	aggPos   []int
}

// NewGroup builds a grouping/aggregation operator. With no groupBy columns
// it produces exactly one row (global aggregates).
func NewGroup(in Iterator, groupBy []string, aggs []AggSpec) (*GroupOp, error) {
	schema, groupPos, aggPos, err := groupSchema(in.Schema(), groupBy, aggs)
	if err != nil {
		return nil, err
	}
	return &GroupOp{
		in: in, groupBy: groupBy, aggs: aggs,
		schema: schema, groupPos: groupPos, aggPos: aggPos,
	}, nil
}

// groupSchema resolves the grouping columns and aggregate arguments against
// the input schema and builds the output schema (group keys first, then one
// column per aggregate). GroupOp and PartialAgg share it.
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

// Schema implements Iterator.
func (g *GroupOp) Schema() *Schema { return g.schema }

// Next implements Iterator.
func (g *GroupOp) Next() (Row, bool) {
	if !g.done {
		g.run()
		g.done = true
	}
	if g.i >= len(g.results) {
		return nil, false
	}
	r := g.results[g.i]
	g.i++
	return r, true
}

func (g *GroupOp) run() {
	h := newAggHash()
	var keyBuf []byte
	for {
		r, ok := g.in.Next()
		if !ok {
			break
		}
		h.sawAny = true
		keyBuf = keyBuf[:0]
		for _, p := range g.groupPos {
			keyBuf = r[p].AppendKey(keyBuf)
			keyBuf = append(keyBuf, '\x1f')
		}
		grp := h.find(keyBuf)
		if grp == nil {
			keyRow := make(Row, len(g.groupPos))
			for i, p := range g.groupPos {
				keyRow[i] = r[p]
			}
			grp = &aggGroup{key: keyRow, states: make([]aggState, len(g.aggs))}
			h.insert(keyBuf, grp)
		}
		for i, a := range g.aggs {
			if a.Kind == AggCountStar {
				grp.states[i].count++
				continue
			}
			grp.states[i].observe(a.Kind, &r[g.aggPos[i]])
		}
	}
	g.results = h.finish(len(g.groupPos), g.aggs)
}

// ---------- Distinct ----------

// DistinctOp removes duplicate rows (by full-row key).
type DistinctOp struct {
	in     Iterator
	seen   map[string]struct{}
	keyBuf []byte
}

// NewDistinct wraps an iterator with duplicate elimination.
func NewDistinct(in Iterator) *DistinctOp {
	return &DistinctOp{in: in, seen: make(map[string]struct{})}
}

// Schema implements Iterator.
func (d *DistinctOp) Schema() *Schema { return d.in.Schema() }

// Next implements Iterator.
func (d *DistinctOp) Next() (Row, bool) {
	for {
		r, ok := d.in.Next()
		if !ok {
			return nil, false
		}
		d.keyBuf = d.keyBuf[:0]
		for _, v := range r {
			d.keyBuf = v.AppendKey(d.keyBuf)
			d.keyBuf = append(d.keyBuf, '\x1f')
		}
		if _, dup := d.seen[string(d.keyBuf)]; dup {
			continue
		}
		d.seen[string(d.keyBuf)] = struct{}{}
		return r, true
	}
}
