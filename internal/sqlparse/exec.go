package sqlparse

import (
	"fmt"
	"strings"

	"flordb/internal/relation"
)

// Result is a fully materialized query result.
type Result struct {
	Columns []string
	Rows    []relation.Row
}

// Run parses and executes a SQL query against a catalog — the live database
// (latest visibility) or a pinned snapshot (one-epoch visibility).
func Run(cat relation.Catalog, query string) (*Result, error) {
	stmt, err := Parse(query)
	if err != nil {
		return nil, err
	}
	return Execute(cat, stmt)
}

// ExecOptions tunes statement execution.
type ExecOptions struct {
	// ScanWorkers caps the morsel-driven parallel scan worker pool. 0 means
	// GOMAXPROCS; 1 forces serial execution. The effective pool is
	// min(GOMAXPROCS, ScanWorkers), and never more than one worker per
	// morsel (see gatherWidth).
	ScanWorkers int
}

// Execute runs a parsed statement against a catalog using the query planner
// (index-backed access paths, predicate pushdown below joins, morsel-driven
// parallel full scans). An EXPLAIN statement returns the rendered plan
// instead of rows. The statement is not mutated, so a cached parse may be
// executed concurrently.
func Execute(cat relation.Catalog, stmt *SelectStmt) (*Result, error) {
	return ExecuteOptions(cat, stmt, ExecOptions{})
}

// ExecuteOptions is Execute with execution tuning.
func ExecuteOptions(cat relation.Catalog, stmt *SelectStmt, opts ExecOptions) (*Result, error) {
	cat, release, err := pinAsOf(cat, stmt)
	if err != nil {
		return nil, err
	}
	defer release()
	ctx := &execCtx{}
	c, err := compile(cat, stmt, ctx, opts)
	if err != nil {
		return nil, err
	}
	if stmt.Explain {
		lines := c.plan.Lines()
		rows := make([]relation.Row, len(lines))
		for i, l := range lines {
			rows[i] = relation.Row{relation.Text(l)}
		}
		return &Result{Columns: []string{"plan"}, Rows: rows}, nil
	}
	return c.run(ctx)
}

// pinAsOf rebases the catalog to the statement's AS OF epoch, if it has one.
// The returned release must be called once the statement has run.
func pinAsOf(cat relation.Catalog, stmt *SelectStmt) (relation.Catalog, func(), error) {
	if stmt.AsOf == nil {
		return cat, func() {}, nil
	}
	if stmt.AsOf.ByTime {
		// Timestamp resolution needs the session's epoch↔timestamp map;
		// flor.Session rewrites ByTime clauses into epoch form before
		// executing. Reaching here means the statement bypassed it.
		return nil, nil, fmt.Errorf("sql: AS OF TIMESTAMP requires a session to resolve the timestamp to an epoch")
	}
	tt, ok := cat.(relation.TimeTraveler)
	if !ok {
		return nil, nil, fmt.Errorf("sql: this catalog does not support AS OF")
	}
	return tt.AsOf(stmt.AsOf.Epoch)
}

// compiled is a fully planned statement: the operator pipeline, the plan tree
// describing it, and the output shape.
type compiled struct {
	it      relation.Iterator
	plan    *PlanNode
	columns []string // visible output columns
	hidden  int      // trailing hidden sort columns to strip
}

// run drains the pipeline and surfaces the first deferred evaluation error.
func (c *compiled) run(ctx *execCtx) (*Result, error) {
	rows := relation.Collect(c.it)
	if err := ctx.firstErr(); err != nil {
		return nil, err
	}
	if c.hidden > 0 {
		for i, r := range rows {
			rows[i] = r[:len(c.columns)]
		}
	}
	return &Result{Columns: c.columns, Rows: rows}, nil
}

// compile plans a statement. Everything from FROM to the projection (or, for
// aggregates, the pre-projection feeding the aggregation sink) is one batch
// pipeline, built by a factory the gather rule may call once per worker;
// DISTINCT, ORDER BY, LIMIT, HAVING and the post-aggregate projection are
// row operators over its (small, or inherently row-ordered) output.
func compile(cat relation.Catalog, stmt *SelectStmt, ctx *execCtx, opts ExecOptions) (*compiled, error) {
	fc, err := resolveFrom(cat, stmt)
	if err != nil {
		return nil, err
	}
	agg := stmt.HasAggregates() || len(stmt.GroupBy) > 0
	if !agg && stmt.Having != nil {
		return nil, fmt.Errorf("sql: HAVING requires GROUP BY or aggregates")
	}
	// pipelines builds the batch half once per worker: FROM/JOIN/WHERE, then
	// the projection of items. Compiled closures hold per-pipeline scratch
	// state and cannot be shared across goroutines, so nothing is.
	pipelines := func(items []projItem) (*gather, error) {
		return newGather(stmt, agg, opts, func() (stream, error) {
			in, err := planInput(cat, stmt, fc, ctx)
			if err != nil {
				return stream{}, err
			}
			b := binder{schema: in.it.Schema()}
			exprs := make([]relation.BatchProjExpr, len(items))
			for i, it := range items {
				if exprs[i], err = compileProjExpr(b, ctx, it); err != nil {
					return stream{}, err
				}
			}
			if in.it, err = relation.NewBatchProject(in.it, exprs); err != nil {
				return stream{}, err
			}
			return in, nil
		})
	}
	if agg {
		return compileAggregate(stmt, ctx, pipelines)
	}
	return compileSimple(stmt, fc.combined, pipelines)
}

// splitJoinOn decomposes an ON clause that is a conjunction of equality
// predicates between a left column and a right column. Predicates that
// aren't cross-side equalities become a residual filter applied after the
// hash join.
func splitJoinOn(on Expr, left, right *relation.Schema, rightBinding string) (leftCols, rightCols []string, residual Expr, err error) {
	conjuncts := flattenAnd(on)
	for _, c := range conjuncts {
		be, ok := c.(*BinaryExpr)
		if ok && be.Op == "=" {
			lref, lok := be.Left.(*ColumnRef)
			rref, rok := be.Right.(*ColumnRef)
			if lok && rok {
				lcol, lSide := resolveSide(lref, left, right, rightBinding)
				rcol, rSide := resolveSide(rref, left, right, rightBinding)
				if lSide == 'L' && rSide == 'R' {
					leftCols = append(leftCols, lcol)
					rightCols = append(rightCols, rcol)
					continue
				}
				if lSide == 'R' && rSide == 'L' {
					leftCols = append(leftCols, rcol)
					rightCols = append(rightCols, lcol)
					continue
				}
			}
		}
		if residual == nil {
			residual = c
		} else {
			residual = &BinaryExpr{Op: "AND", Left: residual, Right: c}
		}
	}
	if len(leftCols) == 0 {
		return nil, nil, nil, fmt.Errorf("sql: JOIN ... ON must contain at least one cross-table equality")
	}
	return leftCols, rightCols, residual, nil
}

func resolveSide(c *ColumnRef, left, right *relation.Schema, rightBinding string) (string, byte) {
	if c.Table != "" && strings.EqualFold(c.Table, rightBinding) {
		if right.Index(c.Name) >= 0 {
			return c.Name, 'R'
		}
	}
	if left.Index(c.Name) >= 0 {
		return c.Name, 'L'
	}
	if c.Table != "" && left.Index(c.Table+"."+c.Name) >= 0 {
		return c.Table + "." + c.Name, 'L'
	}
	if right.Index(c.Name) >= 0 {
		return c.Name, 'R'
	}
	return c.Name, '?'
}

func flattenAnd(e Expr) []Expr {
	if be, ok := e.(*BinaryExpr); ok && be.Op == "AND" {
		return append(flattenAnd(be.Left), flattenAnd(be.Right)...)
	}
	return []Expr{e}
}

// projItem is one projection output awaiting compilation: the expression,
// its output name, and whether evaluation errors surface (hidden sort
// columns drop them).
type projItem struct {
	expr       Expr
	name       string
	captureErr bool
}

// compileRowProjExpr compiles one output expression into a row closure,
// registering an error slot on ctx when the item captures errors.
func compileRowProjExpr(b binder, ctx *execCtx, it projItem) (relation.ProjExpr, error) {
	f, err := b.compile(it.expr)
	if err != nil {
		return relation.ProjExpr{}, err
	}
	out := relation.ProjExpr{Name: it.name, Type: inferType(it.expr, b.schema)}
	if it.captureErr {
		capturedErr := new(error)
		ctx.register(capturedErr)
		out.Eval = func(r relation.Row) relation.Value {
			v, err := f(r)
			if err != nil && *capturedErr == nil {
				*capturedErr = err
			}
			return v
		}
	} else {
		out.Eval = func(r relation.Row) relation.Value {
			v, _ := f(r)
			return v
		}
	}
	return out, nil
}

// compileProjExpr compiles one output expression for the batch projection: a
// plain column reference becomes a pass-through (the column slice is
// aliased, zero work per row); anything else is the row closure plus the set
// of input columns it reads.
func compileProjExpr(b binder, ctx *execCtx, it projItem) (relation.BatchProjExpr, error) {
	if cr, ok := it.expr.(*ColumnRef); ok {
		if i, err := b.resolve(cr); err == nil {
			return relation.PassThrough(it.name, b.schema.Col(i).Type, i), nil
		}
	}
	pe, err := compileRowProjExpr(b, ctx, it)
	if err != nil {
		return relation.BatchProjExpr{}, err
	}
	return relation.BatchProjExpr{Name: pe.Name, Type: pe.Type, NeedCols: b.referencedCols(it.expr), Eval: pe.Eval}, nil
}

// selectItems lists a statement's visible output items; SELECT * expands
// against schema.
func selectItems(stmt *SelectStmt, schema *relation.Schema) []projItem {
	var items []projItem
	if len(stmt.Items) == 0 { // SELECT *
		for i := 0; i < schema.Len(); i++ {
			name := schema.Col(i).Name
			// A bare ColumnRef compiles to a pass-through of the resolved
			// position; schema column names are unique, so this is the column
			// itself.
			items = append(items, projItem{expr: &ColumnRef{Name: name}, name: name, captureErr: true})
		}
	}
	for _, item := range stmt.Items {
		items = append(items, projItem{expr: item.Expr, name: item.OutputName(), captureErr: true})
	}
	return items
}

// finishRows is the row half every statement ends in. It resolves ORDER BY
// against the visible output names; expressions that are not output columns
// are handed to project as hidden items, to be appended to the projection as
// trailing columns (stripped again after the sort). On the projected row
// stream and plan subtree project returns, it stacks DISTINCT, ORDER BY and
// LIMIT/OFFSET.
// relation.NewSort is stable, so sorting a gathered result reassembled in
// row-store order yields exactly the serial output.
func finishRows(stmt *SelectStmt, columns []string, project func(hidden []projItem) (relation.Iterator, *PlanNode, error)) (*compiled, error) {
	outNames := map[string]bool{}
	for _, c := range columns {
		outNames[strings.ToLower(c)] = true
	}
	var hidden []projItem
	var sortKeys []relation.SortKey
	var sortDisplay []string
	for i, oi := range stmt.OrderBy {
		name := fmt.Sprintf("__sort%d", i)
		if cr, ok := oi.Expr.(*ColumnRef); ok && cr.Table == "" && outNames[strings.ToLower(cr.Name)] {
			name = cr.Name
		} else {
			hidden = append(hidden, projItem{expr: oi.Expr, name: name})
		}
		sortKeys = append(sortKeys, relation.SortKey{Col: name, Desc: oi.Desc})
		sortDisplay = append(sortDisplay, orderItemSQL(oi))
	}
	if stmt.Distinct && len(hidden) > 0 {
		return nil, fmt.Errorf("sql: ORDER BY with DISTINCT must reference selected columns")
	}
	it, node, err := project(hidden)
	if err != nil {
		return nil, err
	}
	if stmt.Distinct {
		it = relation.NewDistinct(it)
		node = planAbove("Distinct", "", node)
	}
	if len(sortKeys) > 0 {
		if it, err = relation.NewSort(it, sortKeys); err != nil {
			return nil, err
		}
		node = planAbove("Sort", "["+strings.Join(sortDisplay, ", ")+"]", node)
	}
	if stmt.Limit >= 0 || stmt.Offset > 0 {
		it = relation.NewLimit(it, stmt.Limit, stmt.Offset)
		node = planAbove("Limit", limitDetail(stmt), node)
	}
	return &compiled{it: it, plan: node, columns: columns, hidden: len(hidden)}, nil
}

// itemNames lists the output names of projection items.
func itemNames(items []projItem) []string {
	names := make([]string, len(items))
	for i, it := range items {
		names[i] = it.name
	}
	return names
}

// planAbove places a single-input operator over child in the plan tree. The
// reference executor has no plan: a nil child stays nil.
func planAbove(op, detail string, child *PlanNode) *PlanNode {
	if child == nil {
		return nil
	}
	return &PlanNode{Op: op, Detail: detail, Children: []*PlanNode{child}}
}

func projectNode(columns []string, child *PlanNode) *PlanNode {
	return planAbove("Project", "["+strings.Join(columns, ", ")+"]", child)
}

// compileSimple handles the non-aggregate path: the batch pipeline projects
// the output items (plus hidden sort columns) and the rows adapter at its
// root feeds the row half.
func compileSimple(stmt *SelectStmt, schema *relation.Schema, pipelines func([]projItem) (*gather, error)) (*compiled, error) {
	visible := selectItems(stmt, schema)
	columns := itemNames(visible)
	return finishRows(stmt, columns, func(hidden []projItem) (relation.Iterator, *PlanNode, error) {
		g, err := pipelines(append(visible, hidden...))
		if err != nil {
			return nil, nil, err
		}
		return g.rows(), g.node(projectNode(columns, g.input()), " order=store"), nil
	})
}

func orderItemSQL(oi OrderItem) string {
	s := oi.Expr.SQL()
	if oi.Desc {
		s += " DESC"
	}
	return s
}

func limitDetail(stmt *SelectStmt) string {
	d := ""
	if stmt.Limit >= 0 {
		d = fmt.Sprintf("%d", stmt.Limit)
	}
	if stmt.Offset > 0 {
		if d != "" {
			d += " "
		}
		d += fmt.Sprintf("OFFSET %d", stmt.Offset)
	}
	return d
}

// aggPlan is the AST-level shape of an aggregate statement: the collected
// aggregate calls, the pre-projection items (group keys then aggregate
// arguments), and the aggregation specs. It is computed once per statement
// and compiled per pipeline.
type aggPlan struct {
	rw        *aggRewriter
	pre       []projItem
	groupCols []string
	groupSQL  map[string]string
	specs     []relation.AggSpec
}

// buildAggPlan collects aggregate calls from the select items, HAVING and
// ORDER BY, and lays out the pre-projection and aggregation specs.
func buildAggPlan(stmt *SelectStmt) (*aggPlan, error) {
	rw := &aggRewriter{bySQL: map[string]string{}}
	for _, it := range stmt.Items {
		rw.collect(it.Expr)
	}
	if stmt.Having != nil {
		rw.collect(stmt.Having)
	}
	for _, oi := range stmt.OrderBy {
		rw.collect(oi.Expr)
	}

	ap := &aggPlan{
		rw:        rw,
		groupCols: make([]string, len(stmt.GroupBy)),
		groupSQL:  make(map[string]string, len(stmt.GroupBy)),
	}
	for i, ge := range stmt.GroupBy {
		name := fmt.Sprintf("__g%d", i)
		if cr, ok := ge.(*ColumnRef); ok {
			name = cr.Name
		}
		ap.pre = append(ap.pre, projItem{expr: ge, name: name, captureErr: true})
		ap.groupCols[i] = name
		ap.groupSQL[ge.SQL()] = name
	}
	for i, call := range rw.calls {
		outName := fmt.Sprintf("__agg%d", i)
		rw.bySQL[call.SQL()] = outName
		spec := relation.AggSpec{As: outName}
		switch call.Name {
		case "count":
			if len(call.Args) == 1 {
				if _, isStar := call.Args[0].(*Star); isStar {
					spec.Kind = relation.AggCountStar
					ap.specs = append(ap.specs, spec)
					continue
				}
			}
			spec.Kind = relation.AggCount
		case "sum":
			spec.Kind = relation.AggSum
		case "avg":
			spec.Kind = relation.AggAvg
		case "min":
			spec.Kind = relation.AggMin
		case "max":
			spec.Kind = relation.AggMax
		}
		if len(call.Args) != 1 {
			return nil, fmt.Errorf("sql: %s expects one argument", call.Name)
		}
		argName := fmt.Sprintf("__arg%d", i)
		ap.pre = append(ap.pre, projItem{expr: call.Args[0], name: argName, captureErr: true})
		spec.Col = argName
		ap.specs = append(ap.specs, spec)
	}
	return ap, nil
}

// compileAggregate handles GROUP BY / aggregate queries by (1) pre-projecting
// group keys and aggregate arguments, (2) hash aggregation, (3) rewriting the
// select list, HAVING and ORDER BY to reference the aggregated schema. (1)
// and (2) are the batch pipeline and its sink: pre-projection aliases plain
// column references and the sink reads column slices directly, so a GROUP BY
// allocates nothing per input row.
func compileAggregate(stmt *SelectStmt, ctx *execCtx, pipelines func([]projItem) (*gather, error)) (*compiled, error) {
	ap, err := buildAggPlan(stmt)
	if err != nil {
		return nil, err
	}
	g, err := pipelines(ap.pre)
	if err != nil {
		return nil, err
	}
	grouped, err := g.aggregate(ap.groupCols, ap.specs)
	if err != nil {
		return nil, err
	}
	op := "Aggregate"
	if g.morsels > 0 {
		op = "PartialAggregate"
	}
	node := &PlanNode{Op: op, Detail: aggDetail(ap.groupCols, ap.rw.calls), Children: []*PlanNode{g.input()}}
	return compileAggPost(grouped, g.node(node, ""), stmt, ctx, ap)
}

// applyFilter wraps a row stream with a predicate compiled from pred;
// evaluation errors are registered on ctx and surfaced after execution. The
// planned path uses it for HAVING only — every other filter is a vectorized
// predicate over batches (stream.filter).
func applyFilter(ctx *execCtx, in relation.Iterator, pred Expr) (relation.Iterator, error) {
	b := binder{schema: in.Schema()}
	f, err := b.compile(pred)
	if err != nil {
		return nil, err
	}
	evalErr := new(error)
	ctx.register(evalErr)
	return relation.NewFilter(in, func(r relation.Row) bool {
		if *evalErr != nil {
			return false
		}
		v, err := f(r)
		if err != nil {
			*evalErr = err
			return false
		}
		if v.IsNull() {
			return false
		}
		tb, err := truthy(v)
		if err != nil {
			*evalErr = err
			return false
		}
		return tb
	}), nil
}

// compileAggPost stacks the post-aggregation half of the pipeline — HAVING,
// select-list rewrite, then finishRows — on an aggregated row stream whose
// plan subtree is node (nil for the reference executor).
func compileAggPost(grouped relation.Iterator, node *PlanNode, stmt *SelectStmt, ctx *execCtx, ap *aggPlan) (*compiled, error) {
	if len(stmt.Items) == 0 {
		return nil, fmt.Errorf("sql: SELECT * is not valid with GROUP BY")
	}
	items := selectItems(stmt, grouped.Schema())
	columns := itemNames(items)
	return finishRows(stmt, columns, func(hidden []projItem) (relation.Iterator, *PlanNode, error) {
		out := grouped
		if stmt.Having != nil {
			var err error
			out, err = applyFilter(ctx, out, ap.rw.rewrite(stmt.Having, ap.groupSQL))
			if err != nil {
				return nil, nil, err
			}
			node = planAbove("Filter", "HAVING "+stmt.Having.SQL(), node)
		}
		// Post-aggregation binder over the grouped schema.
		gb := binder{schema: grouped.Schema()}
		var exprs []relation.ProjExpr
		for _, it := range append(items, hidden...) {
			it.expr = ap.rw.rewrite(it.expr, ap.groupSQL)
			e, err := compileRowProjExpr(gb, ctx, it)
			if err != nil {
				if it.captureErr { // a visible item, not a hidden sort column
					err = fmt.Errorf("%w (non-aggregated column in aggregate query?)", err)
				}
				return nil, nil, err
			}
			exprs = append(exprs, e)
		}
		post, err := relation.NewProject(out, exprs)
		if err != nil {
			return nil, nil, err
		}
		return post, projectNode(columns, node), nil
	})
}

func aggDetail(groupCols []string, calls []*FuncCall) string {
	var parts []string
	if len(groupCols) > 0 {
		parts = append(parts, "group by ["+strings.Join(groupCols, ", ")+"]")
	}
	aggs := make([]string, len(calls))
	for i, c := range calls {
		aggs[i] = c.SQL()
	}
	if len(aggs) > 0 {
		parts = append(parts, "aggs ["+strings.Join(aggs, ", ")+"]")
	}
	return strings.Join(parts, " ")
}

// aggRewriter collects aggregate FuncCalls and rewrites expressions to
// reference their output columns.
type aggRewriter struct {
	calls []*FuncCall
	bySQL map[string]string // agg SQL -> output column
}

func (rw *aggRewriter) collect(e Expr) {
	switch x := e.(type) {
	case *FuncCall:
		if x.IsAggregate() {
			sql := x.SQL()
			for _, c := range rw.calls {
				if c.SQL() == sql {
					return
				}
			}
			rw.calls = append(rw.calls, x)
			return
		}
		for _, a := range x.Args {
			rw.collect(a)
		}
	case *BinaryExpr:
		rw.collect(x.Left)
		rw.collect(x.Right)
	case *UnaryExpr:
		rw.collect(x.Expr)
	case *IsNullExpr:
		rw.collect(x.Expr)
	case *InExpr:
		rw.collect(x.Expr)
		for _, a := range x.List {
			rw.collect(a)
		}
	case *BetweenExpr:
		rw.collect(x.Expr)
		rw.collect(x.Lo)
		rw.collect(x.Hi)
	}
}

// rewrite replaces aggregate calls and group-by expressions with column refs
// into the aggregated schema.
func (rw *aggRewriter) rewrite(e Expr, groupSQL map[string]string) Expr {
	if name, ok := groupSQL[e.SQL()]; ok {
		return &ColumnRef{Name: name}
	}
	switch x := e.(type) {
	case *FuncCall:
		if x.IsAggregate() {
			if name, ok := rw.bySQL[x.SQL()]; ok {
				return &ColumnRef{Name: name}
			}
		}
		args := make([]Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = rw.rewrite(a, groupSQL)
		}
		return &FuncCall{Name: x.Name, Args: args}
	case *BinaryExpr:
		return &BinaryExpr{Op: x.Op, Left: rw.rewrite(x.Left, groupSQL), Right: rw.rewrite(x.Right, groupSQL)}
	case *UnaryExpr:
		return &UnaryExpr{Op: x.Op, Expr: rw.rewrite(x.Expr, groupSQL)}
	case *IsNullExpr:
		return &IsNullExpr{Expr: rw.rewrite(x.Expr, groupSQL), Negate: x.Negate}
	case *InExpr:
		list := make([]Expr, len(x.List))
		for i, a := range x.List {
			list[i] = rw.rewrite(a, groupSQL)
		}
		return &InExpr{Expr: rw.rewrite(x.Expr, groupSQL), List: list, Negate: x.Negate}
	case *BetweenExpr:
		return &BetweenExpr{Expr: rw.rewrite(x.Expr, groupSQL), Lo: rw.rewrite(x.Lo, groupSQL), Hi: rw.rewrite(x.Hi, groupSQL), Negate: x.Negate}
	}
	return e
}

// inferType gives a best-effort output type for projection schemas. The
// relation kernel treats types dynamically, so TText as a fallback is safe.
func inferType(e Expr, s *relation.Schema) relation.Type {
	switch x := e.(type) {
	case *Literal:
		if x.Value.IsNull() {
			return relation.TText
		}
		return x.Value.Type()
	case *ColumnRef:
		if x.Table != "" {
			if i := s.Index(x.Table + "." + x.Name); i >= 0 {
				return s.Col(i).Type
			}
		}
		if i := s.Index(x.Name); i >= 0 {
			return s.Col(i).Type
		}
		return relation.TText
	case *BinaryExpr:
		switch x.Op {
		case "AND", "OR", "=", "!=", "<", "<=", ">", ">=", "LIKE":
			return relation.TBool
		}
		lt := inferType(x.Left, s)
		rt := inferType(x.Right, s)
		if x.Op == "/" || lt == relation.TFloat || rt == relation.TFloat {
			return relation.TFloat
		}
		if lt == relation.TText && rt == relation.TText {
			return relation.TText
		}
		return relation.TInt
	case *UnaryExpr:
		if x.Op == "NOT" {
			return relation.TBool
		}
		return inferType(x.Expr, s)
	case *IsNullExpr, *InExpr, *BetweenExpr:
		return relation.TBool
	case *FuncCall:
		switch x.Name {
		case "count":
			return relation.TInt
		case "sum", "avg", "abs", "cast_float":
			return relation.TFloat
		case "length", "cast_int":
			return relation.TInt
		case "lower", "upper", "trim", "cast_text":
			return relation.TText
		case "min", "max", "coalesce":
			if len(x.Args) > 0 {
				return inferType(x.Args[0], s)
			}
		}
		return relation.TText
	}
	return relation.TText
}
