// Query planning. The planner is rule-based: it decomposes the WHERE clause
// into AND-ed conjuncts, pushes every single-table conjunct below the joins to
// the table it references, and picks an access path per base table —
// hash-index lookup for equality/IN predicates, else a full scan whose zone
// maps skip the pages range predicates rule out — with the unconsumed
// residual applied as a filter over the narrowed stream. Joins materialize the smaller
// estimated input as the hash-build side. EXPLAIN renders the chosen plan
// tree without executing it (all access paths materialize lazily).
package sqlparse

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"flordb/internal/relation"
)

// PlanNode is one operator of a chosen query plan, used by EXPLAIN.
type PlanNode struct {
	Op       string // Scan, IndexLookup, Filter, HashJoin, ...
	Detail   string
	Children []*PlanNode
}

// Lines renders the plan tree as indented text, one operator per line.
func (n *PlanNode) Lines() []string {
	var out []string
	n.render(&out, 0)
	return out
}

func (n *PlanNode) render(out *[]string, depth int) {
	line := strings.Repeat("  ", depth) + n.Op
	if n.Detail != "" {
		line += " " + n.Detail
	}
	*out = append(*out, line)
	for _, c := range n.Children {
		c.render(out, depth+1)
	}
}

// String renders the plan as one newline-joined string.
func (n *PlanNode) String() string { return strings.Join(n.Lines(), "\n") }

// execCtx threads deferred evaluation errors through a query pipeline. Filter
// and projection closures cannot return errors through a batch or a row
// sequence, so each registers an error slot here and the executor checks
// every slot after the stream is drained — including slots buried under
// joins, which the previous executor silently dropped.
type execCtx struct {
	errPtrs []*error
}

func (c *execCtx) register(p *error) { c.errPtrs = append(c.errPtrs, p) }

func (c *execCtx) firstErr() error {
	for _, p := range c.errPtrs {
		if *p != nil {
			return *p
		}
	}
	return nil
}

// stream is one planned batch stream: every operator the planner places,
// from the access path to the projection, consumes and produces one.
type stream struct {
	it   relation.BatchIterator
	node *PlanNode
	est  int64 // estimated rows, -1 = unknown; picks hash-join build sides
	// scan is the table scan at the bottom of the stream when the access
	// path is a full scan with nothing but filters and projections above it
	// — the one shape a gather can carve into morsels. nil otherwise.
	scan *relation.BatchScanOp
}

// filter applies pred to the stream as a vectorized predicate; evaluation
// errors are registered on ctx and surfaced after execution.
func (s stream) filter(ctx *execCtx, pred Expr) (stream, error) {
	evalErr := new(error)
	ctx.register(evalErr)
	f, err := binder{schema: s.it.Schema()}.compileBatchPredicate(pred, evalErr)
	if err != nil {
		return stream{}, err
	}
	s.it = relation.NewBatchFilter(s.it, f)
	s.node = &PlanNode{Op: "Filter", Detail: pred.SQL(), Children: []*PlanNode{s.node}}
	return s, nil
}

// fromClause is a statement's resolved FROM/JOIN list: the joined schema and
// which source each of its columns comes from. It is resolved once per
// statement; planInput runs over it once per pipeline.
type fromClause struct {
	sources  []TableRef
	schemas  []*relation.Schema
	combined *relation.Schema
	owner    []int // source index per column of combined
}

// resolveFrom simulates the joined schema to attribute each output column to
// the source it comes from; this mirrors relation.Concat's collision renaming
// exactly, so pushdown resolution matches the runtime binder.
func resolveFrom(cat *relation.Snapshot, stmt *SelectStmt) (*fromClause, error) {
	fc := &fromClause{sources: make([]TableRef, 0, 1+len(stmt.Joins))}
	fc.sources = append(fc.sources, stmt.From)
	for _, j := range stmt.Joins {
		fc.sources = append(fc.sources, j.Table)
	}
	for k, ref := range fc.sources {
		s, _, err := cat.Source(ref.Name)
		if err != nil {
			return nil, err
		}
		fc.schemas = append(fc.schemas, s)
		if k == 0 {
			fc.combined = s
		} else if fc.combined, err = relation.Concat(fc.combined, s, ref.Binding()); err != nil {
			return nil, err
		}
		for i := 0; i < s.Len(); i++ {
			fc.owner = append(fc.owner, k)
		}
	}
	return fc, nil
}

// planInput builds the FROM/JOIN/WHERE pipeline: WHERE splits into conjuncts,
// every single-source conjunct is pushed down to its source's access path,
// and the rest filter above the joins.
func planInput(cat *relation.Snapshot, stmt *SelectStmt, fc *fromClause, ctx *execCtx) (stream, error) {
	pushed := make([][]Expr, len(fc.sources))
	var retained []Expr
	if stmt.Where != nil {
		for _, c := range flattenAnd(stmt.Where) {
			if src := conjunctOwner(c, fc.combined, fc.owner); src >= 0 {
				pushed[src] = append(pushed[src], c)
			} else {
				retained = append(retained, c)
			}
		}
	}

	// Column pruning for the single-table case: the access path materializes
	// only the columns the statement touches.
	var needed []int
	if len(stmt.Joins) == 0 {
		needed = scanColumns(stmt, fc.schemas[0])
	}

	in, err := planSource(cat, fc.sources[0], pushed[0], ctx, needed)
	if err != nil {
		return stream{}, err
	}
	for k, j := range stmt.Joins {
		right, err := planSource(cat, fc.sources[k+1], pushed[k+1], ctx, nil)
		if err != nil {
			return stream{}, err
		}
		var residual Expr
		if in, residual, err = planJoin(in, right, j); err != nil {
			return stream{}, err
		}
		if residual != nil {
			if in, err = in.filter(ctx, residual); err != nil {
				return stream{}, err
			}
		}
	}
	if len(retained) > 0 {
		return in.filter(ctx, combineAnd(retained))
	}
	return in, nil
}

// planJoin wires one hash join, materializing the smaller estimated input as
// the build side (unknown, -1, loses to known) and streaming the other
// through the probe. Output columns are left-then-right either way. ON
// conjuncts that are not cross-side equalities come back as the residual.
func planJoin(left, right stream, j JoinClause) (stream, Expr, error) {
	binding := j.Table.Binding()
	leftCols, rightCols, residual, err := splitJoinOn(j.On, left.it.Schema(), right.it.Schema(), binding)
	if err != nil {
		return stream{}, nil, err
	}
	buildLeft := left.est >= 0 && (right.est < 0 || left.est < right.est)
	probe, build := left, right
	probeCols, buildCols := leftCols, rightCols
	if buildLeft {
		probe, build = right, left
		probeCols, buildCols = rightCols, leftCols
	}
	probePos, err := resolveAll(probe.it.Schema(), probeCols)
	if err != nil {
		return stream{}, nil, err
	}
	buildPos, err := resolveAll(build.it.Schema(), buildCols)
	if err != nil {
		return stream{}, nil, err
	}
	schema, err := relation.Concat(left.it.Schema(), right.it.Schema(), binding)
	if err != nil {
		return stream{}, nil, err
	}
	it, err := relation.NewBatchHashJoin(probe.it, build.it, probePos, buildPos, schema, buildLeft)
	if err != nil {
		return stream{}, nil, err
	}
	out := stream{
		it:   it,
		node: &PlanNode{Op: "HashJoin", Detail: joinDetail(leftCols, rightCols, buildLeft), Children: []*PlanNode{left.node, right.node}},
		est:  max(left.est, right.est),
	}
	if left.est < 0 || right.est < 0 {
		out.est = -1
	}
	return out, residual, nil
}

func resolveAll(s *relation.Schema, cols []string) ([]int, error) {
	out := make([]int, len(cols))
	for i, c := range cols {
		p := s.Index(c)
		if p < 0 {
			return nil, fmt.Errorf("sql: join: no column %q", c)
		}
		out[i] = p
	}
	return out, nil
}

// scanColumns lists the schema positions a single-table statement touches,
// for access-path column pruning. nil means materialize everything: SELECT *
// (empty item list) or a reference that doesn't resolve against the table
// (ORDER BY on an output alias, or a genuinely unknown column the later
// compile will report). A statement that touches no columns at all — e.g.
// SELECT count(*) with no WHERE — returns an empty non-nil slice: the source
// materializes nothing and only computes the selection.
func scanColumns(stmt *SelectStmt, schema *relation.Schema) []int {
	if len(stmt.Items) == 0 {
		return nil
	}
	b := binder{schema: schema}
	seen := make(map[int]bool)
	out := []int{}
	bad := false
	add := func(ref *ColumnRef) {
		if bad {
			return
		}
		pos, err := b.resolve(ref)
		if err != nil {
			bad = true
			return
		}
		if !seen[pos] {
			seen[pos] = true
			out = append(out, pos)
		}
	}
	for _, item := range stmt.Items {
		walkColumnRefs(item.Expr, add)
	}
	if stmt.Where != nil {
		walkColumnRefs(stmt.Where, add)
	}
	for _, g := range stmt.GroupBy {
		walkColumnRefs(g, add)
	}
	if stmt.Having != nil {
		walkColumnRefs(stmt.Having, add)
	}
	for _, oi := range stmt.OrderBy {
		walkColumnRefs(oi.Expr, add)
	}
	if bad {
		return nil
	}
	sort.Ints(out)
	return out
}

func joinDetail(leftCols, rightCols []string, buildLeft bool) string {
	parts := make([]string, len(leftCols))
	for i := range leftCols {
		parts[i] = leftCols[i] + " = " + rightCols[i]
	}
	side := "right"
	if buildLeft {
		side = "left"
	}
	return "on (" + strings.Join(parts, ", ") + ") build=" + side
}

// conjunctOwner returns the index of the single source every column reference
// in c resolves to, or -1 when c touches several sources (or none, or an
// unknown column — those stay above the join and error there if truly bad).
func conjunctOwner(c Expr, combined *relation.Schema, owner []int) int {
	src := -1
	ok := true
	walkColumnRefs(c, func(ref *ColumnRef) {
		if !ok {
			return
		}
		pos := -1
		if ref.Table != "" {
			pos = combined.Index(ref.Table + "." + ref.Name)
		}
		if pos < 0 {
			pos = combined.Index(ref.Name)
		}
		if pos < 0 {
			ok = false
			return
		}
		if src == -1 {
			src = owner[pos]
		} else if src != owner[pos] {
			ok = false
		}
	})
	if !ok {
		return -1
	}
	return src
}

func walkColumnRefs(e Expr, fn func(*ColumnRef)) {
	switch x := e.(type) {
	case *ColumnRef:
		fn(x)
	case *BinaryExpr:
		walkColumnRefs(x.Left, fn)
		walkColumnRefs(x.Right, fn)
	case *UnaryExpr:
		walkColumnRefs(x.Expr, fn)
	case *IsNullExpr:
		walkColumnRefs(x.Expr, fn)
	case *InExpr:
		walkColumnRefs(x.Expr, fn)
		for _, a := range x.List {
			walkColumnRefs(a, fn)
		}
	case *BetweenExpr:
		walkColumnRefs(x.Expr, fn)
		walkColumnRefs(x.Lo, fn)
		walkColumnRefs(x.Hi, fn)
	case *FuncCall:
		for _, a := range x.Args {
			walkColumnRefs(a, fn)
		}
	}
}

func combineAnd(exprs []Expr) Expr {
	out := exprs[0]
	for _, e := range exprs[1:] {
		out = &BinaryExpr{Op: "AND", Left: out, Right: e}
	}
	return out
}

// planSource plans one FROM/JOIN source given the conjuncts pushed to it.
// needed restricts which columns the source materializes (nil = all). A base
// table gets an access path; a virtual table's rows are produced on the first
// NextBatch and gathered into batches.
func planSource(cat *relation.Snapshot, ref TableRef, conjs []Expr, ctx *execCtx, needed []int) (stream, error) {
	if t, ok := cat.Table(ref.Name); ok {
		return planTableAccess(t, ref, conjs, ctx, needed)
	}
	schema, rows, err := cat.Source(ref.Name)
	if err != nil {
		return stream{}, err
	}
	s := stream{
		it:   relation.NewBatchRows(schema, func() []relation.Row { return slices.Collect(rows) }, needed, 0),
		node: &PlanNode{Op: "VirtualScan", Detail: sourceDetail(ref, -1)},
		est:  -1,
	}
	if len(conjs) > 0 {
		return s.filter(ctx, combineAnd(conjs))
	}
	return s, nil
}

func sourceDetail(ref TableRef, est int64) string {
	d := ref.Name
	if ref.Alias != "" {
		d += " AS " + ref.Alias
	}
	if est >= 0 {
		d += fmt.Sprintf(" [~%d rows]", est)
	}
	return d
}

// ---------- Access-path selection over one base table ----------

// sargable is one hash-lookup conjunct: col = lit or col IN (lits...), not
// negated, with no NULL literal (SQL comparisons with NULL match nothing;
// the residual filter handles them).
type sargable struct {
	idx int // position in the conjunct list
	shape
}

// planTableAccess picks the cheapest access path the pushed conjuncts allow:
// hash-index lookup > full scan. Range shapes need no path of their own: the
// full scan's zone maps skip the pages they rule out (DESIGN §13), and a
// lookup drops the candidates on such pages before resolving them.
// Unconsumed conjuncts become a residual filter over the narrowed stream.
// Access paths resolve rows through the pinned table's visibility. Every
// path emits batches of the needed columns: the lookup gathers them from the
// rows its row IDs resolve to, the full scan transposes the row store
// directly.
func planTableAccess(t *relation.TableSnapshot, ref TableRef, conjs []Expr, ctx *execCtx, needed []int) (stream, error) {
	binding := ref.Binding()
	schema := t.Schema()

	eqs := make(map[string]sargable)
	for i, c := range conjs {
		sh, ok := classify(c)
		if !ok || sh.negate || sh.nullLit() || sh.other != nil || (sh.op != "=" && sh.op != "in") {
			continue
		}
		col, ok := tableColOf(sh.col, binding, schema)
		if !ok {
			continue
		}
		if _, dup := eqs[col]; !dup {
			eqs[col] = sargable{idx: i, shape: sh}
		}
	}

	hashCols, keys, consumed := chooseHashIndex(t, eqs)
	var residual []Expr
	for i, c := range conjs {
		if !consumed[i] {
			residual = append(residual, c)
		}
	}
	var out stream
	zonemap := false // the access path skips pages by zone; shown on its Filter line
	if hashCols != nil {
		// The lookup drops candidate ids whose page zone rules the residual
		// out, under the same gate as the scan's pruning.
		var zf relation.ZoneFilter
		if len(residual) > 0 {
			zf, _ = binder{schema: schema}.zoneFilter(combineAnd(residual))
			zonemap = zf != nil
		}
		it, err := relation.NewIndexLookup(t, hashCols, keys, needed, zf)
		if err != nil {
			return stream{}, err
		}
		out = stream{it: it, est: int64(len(keys)),
			node: &PlanNode{Op: "IndexLookup", Detail: lookupDetail(ref, hashCols, keys)}}
	} else {
		out.scan = relation.NewBatchScan(t, needed, relation.DefaultBatchSize)
		if len(conjs) > 0 {
			// Zone-map pruning for the full scan, armed only when every leaf
			// of the pushed predicate is a classified shape (binder.zoneFilter).
			if zf, _ := (binder{schema: schema}).zoneFilter(combineAnd(conjs)); zf != nil {
				out.scan.SetZoneFilter(zf)
				zonemap = true
			}
		}
		out.it = out.scan
		out.est = int64(t.Len())
		out.node = &PlanNode{Op: "Scan", Detail: sourceDetail(ref, out.est)}
	}
	if len(residual) == 0 {
		return out, nil
	}
	out, err := out.filter(ctx, combineAnd(residual))
	if err == nil && zonemap {
		out.node.Detail += " [zonemap]"
	}
	return out, err
}

// chooseHashIndex returns the widest hash index whose every column is bound
// by an equality (or one IN) conjunct, with the expanded key tuples and the
// set of consumed conjunct indices.
func chooseHashIndex(t *relation.TableSnapshot, eqs map[string]sargable) (cols []string, keys [][]relation.Value, consumed map[int]bool) {
	if len(eqs) == 0 {
		return nil, nil, nil
	}
	for _, ixCols := range t.HashIndexColumns() { // widest-first
		keys = [][]relation.Value{{}}
		consumed = make(map[int]bool)
		inUsed := false
		ok := true
		for _, col := range ixCols {
			s, have := eqs[strings.ToLower(col)]
			if !have {
				ok = false
				break
			}
			if s.op == "in" {
				// One IN column per plan keeps key expansion linear.
				if inUsed {
					ok = false
					break
				}
				inUsed = true
				expanded := make([][]relation.Value, 0, len(keys)*len(s.lits))
				for _, k := range keys {
					for _, v := range s.lits {
						nk := make([]relation.Value, 0, len(k)+1)
						nk = append(nk, k...)
						expanded = append(expanded, append(nk, v))
					}
				}
				keys = expanded
			} else {
				for i := range keys {
					keys[i] = append(keys[i], s.lits[0])
				}
			}
			consumed[s.idx] = true
		}
		if ok {
			return ixCols, dedupeKeys(keys), consumed
		}
	}
	return nil, nil, nil
}

func dedupeKeys(keys [][]relation.Value) [][]relation.Value {
	if len(keys) < 2 {
		return keys
	}
	seen := make(map[string]bool, len(keys))
	out := keys[:0]
	var buf []byte
	for _, k := range keys {
		buf = buf[:0]
		for _, v := range k {
			buf = v.AppendKey(buf)
			buf = append(buf, '\x1f')
		}
		if seen[string(buf)] {
			continue
		}
		seen[string(buf)] = true
		out = append(out, k)
	}
	return out
}

// tableColOf resolves e as a reference to a column of the table bound as
// binding, returning the schema-normalized column name.
func tableColOf(e Expr, binding string, schema *relation.Schema) (string, bool) {
	ref, ok := e.(*ColumnRef)
	if !ok {
		return "", false
	}
	if ref.Table != "" && !strings.EqualFold(ref.Table, binding) {
		return "", false
	}
	i := schema.Index(ref.Name)
	if i < 0 {
		return "", false
	}
	return strings.ToLower(schema.Col(i).Name), true
}

// ---------- EXPLAIN rendering details ----------

func valueSQL(v relation.Value) string { return (&Literal{Value: v}).SQL() }

func lookupDetail(ref TableRef, cols []string, keys [][]relation.Value) string {
	d := ref.Name
	if ref.Alias != "" {
		d += " AS " + ref.Alias
	}
	d += " via hash(" + strings.Join(cols, ", ") + ")"
	tuples := make([]string, len(keys))
	for i, k := range keys {
		parts := make([]string, len(k))
		for j, v := range k {
			parts[j] = valueSQL(v)
		}
		tuples[i] = "(" + strings.Join(parts, ", ") + ")"
	}
	if len(tuples) == 1 {
		return d + " = " + tuples[0]
	}
	return d + " IN (" + strings.Join(tuples, ", ") + ")"
}
