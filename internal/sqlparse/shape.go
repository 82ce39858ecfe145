package sqlparse

import "flordb/internal/relation"

// Predicate shapes: the WHERE leaves the engine reasons about without
// evaluating them. classify is the one recognizer; the vectorized kernels
// (binder.kernelize), zone verdicts (binder.zoneVerdict) and hash-index
// lookups (planTableAccess) each switch on its result.

// shape is one classified leaf:
//
//   - col <op> literal for a comparison op, literal-first forms flipped;
//   - col <op> other, a comparison of two columns;
//   - col [NOT] IN (literal, ...): op "in";
//   - col [NOT] BETWEEN literal AND literal: op "between";
//   - col IS [NOT] NULL: op "is null".
//
// A literal may be NULL.
type shape struct {
	op     string
	col    *ColumnRef
	other  *ColumnRef
	lits   []relation.Value
	negate bool
}

// flipped maps each comparison operator to its mirror image:
// lit <op> col is col <flipped[op]> lit.
var flipped = map[string]string{"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}

// classify recognizes e as a shape, or reports false.
func classify(e Expr) (shape, bool) {
	switch x := e.(type) {
	case *BinaryExpr:
		if _, cmp := flipped[x.Op]; !cmp {
			return shape{}, false
		}
		if l, ok := x.Left.(*ColumnRef); ok {
			if r, ok := x.Right.(*ColumnRef); ok {
				return shape{op: x.Op, col: l, other: r}, true
			}
		}
		if s, ok := columnShape(x.Op, x.Left, false, x.Right); ok {
			return s, true
		}
		return columnShape(flipped[x.Op], x.Right, false, x.Left)
	case *InExpr:
		return columnShape("in", x.Expr, x.Negate, x.List...)
	case *BetweenExpr:
		return columnShape("between", x.Expr, x.Negate, x.Lo, x.Hi)
	case *IsNullExpr:
		return columnShape("is null", x.Expr, x.Negate)
	}
	return shape{}, false
}

// columnShape classifies `e <op> operands...` when e is a column and every
// operand a literal.
func columnShape(op string, e Expr, negate bool, operands ...Expr) (shape, bool) {
	ref, ok := e.(*ColumnRef)
	if !ok {
		return shape{}, false
	}
	s := shape{op: op, col: ref, negate: negate, lits: make([]relation.Value, len(operands))}
	for i, o := range operands {
		if s.lits[i], ok = literalOf(o); !ok {
			return shape{}, false
		}
	}
	return s, true
}

// literalOf extracts a constant from a Literal or a negated numeric Literal.
func literalOf(e Expr) (relation.Value, bool) {
	switch x := e.(type) {
	case *Literal:
		return x.Value, true
	case *UnaryExpr:
		if x.Op != "-" {
			return relation.Null(), false
		}
		inner, ok := x.Expr.(*Literal)
		if !ok {
			return relation.Null(), false
		}
		switch inner.Value.Type() {
		case relation.TInt:
			return relation.Int(-inner.Value.AsInt()), true
		case relation.TFloat:
			return relation.Float(-inner.Value.AsFloat()), true
		}
	}
	return relation.Null(), false
}

// nullLit reports whether any of s's literals is NULL.
func (s shape) nullLit() bool {
	for i := range s.lits {
		if s.lits[i].IsNull() {
			return true
		}
	}
	return false
}

// interval is a range of one column's values under the relation.Compare
// order; a NULL bound is unbounded on that side (its Incl flag is unused).
type interval struct {
	lo, hi         relation.Value
	loIncl, hiIncl bool
}

// interval returns the values a range shape admits — a column compared
// with =, <, <=, > or >= a literal, or BETWEEN two literals (NOT BETWEEN
// admits the complement) — and false for any other shape. s must have no
// NULL literal: one makes the shape admit nothing at all.
func (s shape) interval() (interval, bool) {
	if s.other != nil {
		return interval{}, false
	}
	switch s.op {
	case "=":
		return interval{lo: s.lits[0], hi: s.lits[0], loIncl: true, hiIncl: true}, true
	case "<", "<=":
		return interval{hi: s.lits[0], hiIncl: s.op == "<="}, true
	case ">", ">=":
		return interval{lo: s.lits[0], loIncl: s.op == ">="}, true
	case "between":
		return interval{lo: s.lits[0], hi: s.lits[1], loIncl: true, hiIncl: true}, true
	}
	return interval{}, false
}

// disjoint reports that iv admits no value in [zmin, zmax].
func (iv *interval) disjoint(zmin, zmax *relation.Value) bool {
	if !iv.hi.IsNull() {
		if c := relation.ComparePtr(&iv.hi, zmin); c < 0 || (c == 0 && !iv.hiIncl) {
			return true
		}
	}
	if !iv.lo.IsNull() {
		if c := relation.ComparePtr(&iv.lo, zmax); c > 0 || (c == 0 && !iv.loIncl) {
			return true
		}
	}
	return false
}

// contains reports that iv admits every value in [zmin, zmax].
func (iv *interval) contains(zmin, zmax *relation.Value) bool {
	if !iv.lo.IsNull() {
		if c := relation.ComparePtr(&iv.lo, zmin); c > 0 || (c == 0 && !iv.loIncl) {
			return false
		}
	}
	if !iv.hi.IsNull() {
		if c := relation.ComparePtr(&iv.hi, zmax); c < 0 || (c == 0 && !iv.hiIncl) {
			return false
		}
	}
	return true
}
