package relation

import "fmt"

// Batch execution. A Batch is a fixed-size, column-oriented chunk of rows
// with a selection vector: operators process whole batches instead of one
// row at a time, which amortizes interface dispatch, eliminates per-row
// output allocation, and lets predicates run as tight loops over column
// slices. MVCC visibility composes for free: a batch scan materializes a
// contiguous chunk of the append-only row store and records only the rows
// visible at the pinned epoch in the selection vector, so every downstream
// operator inherits snapshot semantics by honoring Sel.
//
// Ownership contract: a Batch returned by NextBatch — its column slices and
// its selection vector — is valid only until the next NextBatch call on the
// same iterator. Producers reuse buffers across batches; consumers that
// retain values must copy them (RowsFromBatches does). Consumers may compact
// Sel of a batch they received in place; they must not mutate column values.

// DefaultBatchSize is the number of rows a batch-producing operator packs
// per chunk. 1024 rows keeps a handful of column slices L2-resident while
// amortizing per-batch overhead to noise.
const DefaultBatchSize = 1024

// Batch is one column-oriented chunk of rows.
type Batch struct {
	// Cols holds one value slice per schema column, each of physical length
	// n. A column a batch scan was told to prune is nil; downstream
	// operators never read pruned columns.
	Cols [][]Value
	// Sel is the selection vector: the physical row indices (ascending,
	// each in [0, n)) that are live in this batch. Filters compact it.
	Sel []int

	n      int // physical rows materialized in each non-nil column
	schema *Schema
}

// Schema returns the schema the columns are laid out by.
func (b *Batch) Schema() *Schema { return b.schema }

// Len returns the number of selected (live) rows.
func (b *Batch) Len() int { return len(b.Sel) }

// Size returns the physical row count materialized in each column.
func (b *Batch) Size() int { return b.n }

// reset truncates the batch for refilling.
func (b *Batch) reset() {
	for i := range b.Cols {
		if b.Cols[i] != nil {
			b.Cols[i] = b.Cols[i][:0]
		}
	}
	b.Sel = b.Sel[:0]
	b.n = 0
}

// row copies physical row i into dst (allocated when nil or short).
func (b *Batch) row(i int, dst Row) Row {
	if cap(dst) < len(b.Cols) {
		dst = make(Row, len(b.Cols))
	}
	dst = dst[:len(b.Cols)]
	for j, col := range b.Cols {
		if col == nil {
			dst[j] = Value{}
			continue
		}
		dst[j] = col[i]
	}
	return dst
}

// BatchIterator is the batch-at-a-time operator interface, the vectorized
// sibling of Iterator. NextBatch returns the next non-empty batch or
// (nil, false) at end of stream.
type BatchIterator interface {
	Schema() *Schema
	NextBatch() (*Batch, bool)
}

// ---------- Batch -> row adapter ----------

// RowsFromBatchesOp adapts a BatchIterator into a row Iterator at a
// pipeline boundary (sort, distinct, limit, final materialization). Each
// emitted row is freshly allocated, since batch buffers are reused.
type RowsFromBatchesOp struct {
	in  BatchIterator
	cur *Batch
	i   int // next position within cur.Sel
}

// NewRowsFromBatches wraps a batch stream as a row stream.
func NewRowsFromBatches(in BatchIterator) *RowsFromBatchesOp {
	return &RowsFromBatchesOp{in: in}
}

// Schema implements Iterator.
func (r *RowsFromBatchesOp) Schema() *Schema { return r.in.Schema() }

// Next implements Iterator.
func (r *RowsFromBatchesOp) Next() (Row, bool) {
	for {
		if r.cur != nil && r.i < len(r.cur.Sel) {
			row := r.cur.row(r.cur.Sel[r.i], nil)
			r.i++
			return row, true
		}
		b, ok := r.in.NextBatch()
		if !ok {
			return nil, false
		}
		r.cur, r.i = b, 0
	}
}

// ---------- Batch scan ----------

// batchStater is the internal surface batch scans pin table state through:
// both Table (latest visibility) and TableSnapshot (epoch visibility)
// expose their published state and the epoch to filter it at.
type batchStater interface {
	batchState() (*tableState, int64)
}

// BatchScanOp scans a row store in contiguous chunks, transposing each chunk
// into column slices and recording the epoch-visible rows in the selection
// vector. Like ScanOp, state resolves lazily on the first NextBatch, so
// building a plan (EXPLAIN) costs nothing. Column pruning: when needed is
// non-nil, only those columns are materialized. The store is either a
// table's (NewBatchScan) or a row set some other access path resolved —
// index matches, a virtual table (NewBatchRows).
type BatchScanOp struct {
	src      TableReader  // nil for NewBatchRows
	rowsFn   func() []Row // NewBatchRows: resolves the already-visible rows
	schema   *Schema
	needed   []int // nil = all columns
	size     int
	batch    *Batch
	cols     []int // resolved column positions to materialize
	identity []int // pristine 0..size-1, copied into Sel (filters compact Sel in place)
	resolved bool

	// Direct row-store walk (Table / TableSnapshot).
	st    *tableState
	epoch int64
	base  int
	hi    int // exclusive scan bound; -1 = whole store (see SetRange)

	// Zone-map pruning (nil = none): zoneFilter decides page skips, zones
	// holds the table's cached page zones, resolved lazily with the state.
	zoneFilter ZoneFilter
	zones      []PageZone

	// Already visibility-filtered rows: NewBatchRows, and table readers
	// without a published state.
	rows []Row
}

// NewBatchScan returns a batch scan over a table read surface. needed lists
// the schema positions to materialize (nil for all); size <= 0 selects
// DefaultBatchSize.
func NewBatchScan(t TableReader, needed []int, size int) *BatchScanOp {
	if size <= 0 {
		size = DefaultBatchSize
	}
	return &BatchScanOp{src: t, schema: t.Schema(), needed: needed, size: size, hi: -1}
}

// NewBatchRows returns a batch scan over the rows src resolves on the first
// NextBatch — rows that are already visibility-filtered and that the caller
// will not mutate. It is how row-producing access paths (index lookups and
// ranges, virtual tables) enter the batch pipeline; the batch buffers are
// sized to the resolved row count, so a handful of matches costs a handful
// of values per needed column, not a full batch.
func NewBatchRows(schema *Schema, src func() []Row, needed []int, size int) *BatchScanOp {
	if size <= 0 {
		size = DefaultBatchSize
	}
	return &BatchScanOp{rowsFn: src, schema: schema, needed: needed, size: size, hi: -1}
}

// Schema implements BatchIterator.
func (s *BatchScanOp) Schema() *Schema { return s.schema }

// SetZoneFilter arms zone-map pruning: pages whose zones satisfy f are
// skipped without transposing. Must be called before the first NextBatch.
func (s *BatchScanOp) SetZoneFilter(f ZoneFilter) { s.zoneFilter = f }

// SetRange restricts the scan to row-store positions [lo, hi) and rewinds
// the cursor, so one scan operator (and the pipeline compiled on top of it)
// can be re-armed per morsel by a parallel worker. Bounds are clamped to the
// store at read time; page-aligned bounds keep zone pruning exact.
func (s *BatchScanOp) SetRange(lo, hi int) {
	s.base, s.hi = lo, hi
}

// StoreLen resolves the scan's backing state and returns the physical
// row-store length the scan walks — including versions invisible at the
// pinned epoch, unlike TableReader.Len. Parallel executors use it to carve
// the store into page-aligned morsels: the store is append-only, so any
// range valid against one worker's resolved state is valid against all.
func (s *BatchScanOp) StoreLen() int {
	if !s.resolved {
		s.resolve()
	}
	if s.st != nil {
		return len(s.st.rows)
	}
	return len(s.rows)
}

func (s *BatchScanOp) resolve() {
	s.resolved = true
	if s.rowsFn != nil {
		s.rows = s.rowsFn()
		s.size = max(1, min(s.size, len(s.rows)))
	} else if bp, ok := s.src.(batchStater); ok {
		s.st, s.epoch = bp.batchState()
		if s.zoneFilter != nil {
			if zt, ok := s.src.(zoneTabler); ok {
				if t := zt.zoneTable(); t != nil {
					s.zones = t.zonePages(s.st)
				}
			}
		}
	} else {
		s.rows = s.src.Rows() // already visibility-filtered
	}
	s.batch = &Batch{schema: s.schema, Cols: make([][]Value, s.schema.Len())}
	s.cols = s.needed
	if s.cols == nil {
		s.cols = make([]int, s.schema.Len())
		for i := range s.cols {
			s.cols[i] = i
		}
	}
	for _, c := range s.cols {
		s.batch.Cols[c] = make([]Value, s.size)
	}
	s.batch.Sel = make([]int, s.size)
	s.identity = make([]int, s.size)
	for i := range s.identity {
		s.identity[i] = i
	}
}

// NextBatch implements BatchIterator.
func (s *BatchScanOp) NextBatch() (*Batch, bool) {
	if !s.resolved {
		s.resolve()
	}
	var store []Row
	if s.st != nil {
		store = s.st.rows
	} else {
		store = s.rows
	}
	limit := len(store)
	if s.hi >= 0 && s.hi < limit {
		limit = s.hi
	}
	for {
		if s.base >= limit {
			return nil, false
		}
		end := s.base + s.size
		if end > limit {
			end = limit
		}
		n := end - s.base
		// Zone pruning: when the chunk is exactly one complete page, its
		// cached zone can rule the whole page out — born after the pinned
		// epoch, or outside the predicate's value bounds — before a single
		// value is read. Conservative by construction (zonemap.go).
		if s.zones != nil && s.base%ZonePageRows == 0 && n == ZonePageRows {
			if p := s.base / ZonePageRows; p < len(s.zones) {
				z := &s.zones[p]
				if z.MinBorn > s.epoch || (s.zoneFilter != nil && s.zoneFilter(z)) {
					zonePagesPruned.Add(1)
					s.base = end
					continue
				}
			}
		}
		b := s.batch
		// Selection first: row i is selected iff row store entry base+i is
		// visible at the pinned epoch. Computing it before the transpose
		// means a chunk of pure tombstones (or rows born after an AS OF
		// epoch) skips materialization entirely — the dead-epoch analog of
		// zone pruning, sound against concurrent deletes because it reads
		// this scan's own pinned state.
		sel := b.Sel[:s.size][:n]
		if s.st != nil {
			born, dead := s.st.born[s.base:end], s.st.dead[s.base:end]
			k := 0
			for i := 0; i < n; i++ {
				if born[i] <= s.epoch && (dead[i] == 0 || dead[i] > s.epoch) {
					sel[k] = i
					k++
				}
			}
			b.Sel = sel[:k]
		} else {
			copy(sel, s.identity[:n])
			b.Sel = sel
		}
		if len(b.Sel) == 0 {
			s.base = end
			continue
		}
		// Transpose only the selected positions: visible rows are never
		// GC-reclaimed (nil), and downstream operators read selected
		// positions only (the batch ownership contract).
		chunk := store[s.base:end]
		for _, j := range s.cols {
			col := b.Cols[j][:s.size][:n]
			for _, i := range b.Sel {
				col[i] = chunk[i][j]
			}
			b.Cols[j] = col
		}
		b.n = n
		s.base = end
		if s.rowsFn == nil { // a resolved row set has no pages
			zonePagesDecoded.Add(1)
		}
		return b, true
	}
}

// ---------- Batch filter ----------

// BatchPredicate evaluates a predicate over a whole batch, compacting the
// selection vector in place to the rows that pass.
type BatchPredicate func(*Batch)

// BatchFilterOp applies a vectorized predicate to each batch, dropping
// batches the predicate empties.
type BatchFilterOp struct {
	in   BatchIterator
	pred BatchPredicate
}

// NewBatchFilter wraps a batch stream with a vectorized predicate.
func NewBatchFilter(in BatchIterator, pred BatchPredicate) *BatchFilterOp {
	return &BatchFilterOp{in: in, pred: pred}
}

// Schema implements BatchIterator.
func (f *BatchFilterOp) Schema() *Schema { return f.in.Schema() }

// NextBatch implements BatchIterator.
func (f *BatchFilterOp) NextBatch() (*Batch, bool) {
	for {
		b, ok := f.in.NextBatch()
		if !ok {
			return nil, false
		}
		f.pred(b)
		if len(b.Sel) > 0 {
			return b, true
		}
	}
}

// ---------- Batch project ----------

// BatchProjExpr computes one output column of a projection: pass-through
// columns alias the input slice, computed columns are evaluated row-by-row
// over a scratch row populated with just the columns the expression reads.
type BatchProjExpr struct {
	Name string
	Type Type
	// Input is the input column a pass-through aliases. An expression with
	// nil Eval is a pass-through: the batch path aliases the input slice
	// (zero copy, zero eval).
	Input int
	// NeedCols lists the input columns Eval reads; the batch path copies
	// only these into the scratch row per evaluated row.
	NeedCols []int
	// Eval computes the value from a row of the input schema; nil marks a
	// pass-through of column Input. Evaluation errors are captured out of
	// band (see sqlparse's execCtx), matching ProjExpr.
	Eval func(Row) Value
}

// PassThrough builds a pass-through projection of input column pos.
func PassThrough(name string, typ Type, pos int) BatchProjExpr {
	return BatchProjExpr{Name: name, Type: typ, Input: pos}
}

// BatchProjectOp maps input batches through projection expressions.
// Pass-through columns alias the input column slices and the output shares
// the input's selection vector; computed columns are evaluated only at
// selected positions.
type BatchProjectOp struct {
	in      BatchIterator
	exprs   []BatchProjExpr
	schema  *Schema
	out     Batch
	scratch Row
}

// NewBatchProject builds a vectorized projection operator.
func NewBatchProject(in BatchIterator, exprs []BatchProjExpr) (*BatchProjectOp, error) {
	cols := make([]Column, len(exprs))
	inWidth := in.Schema().Len()
	for i, e := range exprs {
		if e.Eval == nil && (e.Input < 0 || e.Input >= inWidth) {
			return nil, fmt.Errorf("relation: batch project: pass-through column %d out of range", e.Input)
		}
		cols[i] = Column{Name: e.Name, Type: e.Type}
	}
	s, err := NewSchema(cols...)
	if err != nil {
		return nil, err
	}
	return &BatchProjectOp{
		in: in, exprs: exprs, schema: s,
		out:     Batch{schema: s, Cols: make([][]Value, len(exprs))},
		scratch: make(Row, inWidth),
	}, nil
}

// Schema implements BatchIterator.
func (p *BatchProjectOp) Schema() *Schema { return p.schema }

// NextBatch implements BatchIterator.
func (p *BatchProjectOp) NextBatch() (*Batch, bool) {
	b, ok := p.in.NextBatch()
	if !ok {
		return nil, false
	}
	out := &p.out
	out.n = b.n
	out.Sel = b.Sel
	for j, e := range p.exprs {
		if e.Eval == nil {
			out.Cols[j] = b.Cols[e.Input]
			continue
		}
		col := out.Cols[j]
		if cap(col) < b.n {
			col = make([]Value, b.n)
		}
		col = col[:b.n]
		for _, i := range b.Sel {
			for _, c := range e.NeedCols {
				p.scratch[c] = b.Cols[c][i]
			}
			col[i] = e.Eval(p.scratch)
		}
		out.Cols[j] = col
	}
	return out, true
}

// ---------- Batch hash join ----------

// BatchHashJoinOp is the vectorized sibling of HashJoinOp: the build side
// is drained into a hash table on first use (lazily, so EXPLAIN is free)
// and the probe side streams batch-at-a-time, each selected probe row
// emitting its matches into a column-oriented output batch of at most
// DefaultBatchSize rows — a skewed key resumes mid-probe-batch on the next
// call instead of growing the batch without bound. Output rows are always
// left-columns-then-right regardless of which side builds. Both inputs must
// materialize every column: the planner prunes single-table statements only.
type BatchHashJoinOp struct {
	probe     BatchIterator
	buildSrc  BatchIterator
	buildRows map[string][]Row
	probeCols []int
	buildCols []int
	schema    *Schema
	// buildIsLeft reports the build side supplies the left half of output
	// rows (the probe stream supplies the right half).
	buildIsLeft bool
	built       bool
	out         Batch
	keyBuf      []byte

	// Probe cursor, kept across calls: the probe batch in flight, the next
	// position in its selection vector, and the not-yet-emitted matches of
	// the probe row before that position.
	cur     *Batch
	pi      int
	matches []Row
}

// NewBatchHashJoin joins a probe stream against a build stream, which is
// materialized, on probeCols[i] == buildCols[i] (schema positions). When
// buildIsLeft, output rows are build-row ++ probe-row; otherwise
// probe-row ++ build-row. schema must be the concatenated output schema.
func NewBatchHashJoin(probe, build BatchIterator, probeCols, buildCols []int, schema *Schema, buildIsLeft bool) (*BatchHashJoinOp, error) {
	if len(probeCols) != len(buildCols) || len(probeCols) == 0 {
		return nil, fmt.Errorf("relation: batch join requires equal, non-empty key lists")
	}
	return &BatchHashJoinOp{
		probe: probe, buildSrc: build,
		probeCols: probeCols, buildCols: buildCols,
		schema: schema, buildIsLeft: buildIsLeft,
		out: Batch{schema: schema, Cols: make([][]Value, schema.Len())},
	}, nil
}

// Schema implements BatchIterator.
func (j *BatchHashJoinOp) Schema() *Schema { return j.schema }

// build drains the build side into the hash table. Rows are copied out of
// the batch buffers (which the producer reuses); NULL-keyed rows can never
// match and are dropped before the copy.
func (j *BatchHashJoinOp) build() {
	j.buildRows = make(map[string][]Row)
	for {
		b, ok := j.buildSrc.NextBatch()
		if !ok {
			break
		}
		for _, i := range b.Sel {
			key, ok := appendBatchJoinKey(j.keyBuf[:0], b, i, j.buildCols)
			j.keyBuf = key
			if !ok {
				continue
			}
			j.buildRows[string(key)] = append(j.buildRows[string(key)], b.row(i, nil))
		}
	}
	j.built = true
}

// appendBatchJoinKey builds the join key for batch row i into dst; ok is
// false when any key column is NULL (NULL keys never match).
func appendBatchJoinKey(dst []byte, b *Batch, i int, pos []int) (_ []byte, ok bool) {
	for _, p := range pos {
		v := &b.Cols[p][i]
		if v.IsNull() {
			return dst, false
		}
		dst = v.appendKey(dst)
		dst = append(dst, '\x1f')
	}
	return dst, true
}

// NextBatch implements BatchIterator.
func (j *BatchHashJoinOp) NextBatch() (*Batch, bool) {
	if !j.built {
		j.build()
	}
	probeWidth := j.probe.Schema().Len()
	buildWidth := j.schema.Len() - probeWidth
	// Output column ranges for the two sides.
	probeBase, buildBase := 0, probeWidth
	if j.buildIsLeft {
		probeBase, buildBase = buildWidth, 0
	}
	out := &j.out
	out.reset()
	for {
		if j.cur == nil {
			b, ok := j.probe.NextBatch()
			if !ok {
				return nil, false
			}
			j.cur, j.pi = b, 0
		}
		b := j.cur
		for {
			for len(j.matches) > 0 && out.n < DefaultBatchSize {
				i, m := b.Sel[j.pi-1], j.matches[0]
				j.matches = j.matches[1:]
				for c := 0; c < probeWidth; c++ {
					out.Cols[probeBase+c] = append(out.Cols[probeBase+c], b.Cols[c][i])
				}
				for c := 0; c < buildWidth; c++ {
					out.Cols[buildBase+c] = append(out.Cols[buildBase+c], m[c])
				}
				out.Sel = append(out.Sel, out.n)
				out.n++
			}
			if len(j.matches) > 0 {
				return out, true // full; resume this probe row on the next call
			}
			if j.pi == len(b.Sel) {
				break
			}
			key, ok := appendBatchJoinKey(j.keyBuf[:0], b, b.Sel[j.pi], j.probeCols)
			j.keyBuf = key
			j.pi++
			if ok {
				j.matches = j.buildRows[string(key)]
			}
		}
		j.cur = nil
		if out.n > 0 {
			return out, true
		}
		// No probe row matched in this batch; pull the next one.
	}
}
