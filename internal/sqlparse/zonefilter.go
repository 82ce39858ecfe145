package sqlparse

import "flordb/internal/relation"

// zoneFilter compiles a pushed WHERE predicate into a relation.ZoneFilter
// that decides, from a page's per-column min/max and null-count zone,
// whether the page can be skipped without decoding. It may only skip a page
// when provably no row in it satisfies the predicate.
//
// ok is false, and zf nil, unless every leaf of e is a classified shape
// whose columns resolve (AND/OR trees of them). That is the gate on
// pruning: any other leaf could raise a deferred evaluation error on a row,
// and skipping the page would suppress that error (binder.compile's AND
// evaluates the right side when the left is NULL, so even one AND conjunct
// can carry another's error). Shapes never produce evaluation errors, so
// under this gate pruning is behavior-identical to the serial scan. With
// ok true, zf is nil when the predicate can never skip a page.
//
// Soundness per shape (a zone's Min/Max track non-NULL cells only; NULL
// comparisons are never satisfied, so NULL cells can be ignored for every
// shape except IS [NOT] NULL, which uses the null count):
//
//   - A page whose column zone has Min == NULL holds no non-NULL cell, so
//     any comparison / IN / BETWEEN prunes it.
//   - A NULL literal in a comparison or BETWEEN satisfies no row at all —
//     always skip.
//   - Range shapes (=, <, <=, >, >=, BETWEEN): skip when their interval is
//     disjoint from [Min, Max]. NOT BETWEEN: skip when [Min, Max] lies
//     inside [lo, hi].
//   - col != lit: skip when Min == lit == Max (every non-NULL cell equals lit).
//   - IN: skip when every non-NULL list literal falls outside [Min, Max]
//     (NULL list items never match; an all-NULL list matches nothing).
//   - IS NULL: skip when NullCount == 0; IS NOT NULL: when NullCount == Rows.
//   - AND: a page skippable by either conjunct is skippable. OR: only a page
//     skippable by both disjuncts is skippable.
//   - Column-vs-column comparisons and NOT IN: never skip.
//
// Ordering uses relation.ComparePtr — the same total order the kernels
// filter by — so numeric cross-type comparisons prune consistently.
func (b binder) zoneFilter(e Expr) (zf relation.ZoneFilter, ok bool) {
	if x, isBin := e.(*BinaryExpr); isBin && (x.Op == "AND" || x.Op == "OR") {
		l, lok := b.zoneFilter(x.Left)
		r, rok := b.zoneFilter(x.Right)
		switch {
		case !lok || !rok:
			return nil, false
		case x.Op == "OR" && (l == nil || r == nil):
			return nil, true
		case x.Op == "OR":
			return func(z *relation.PageZone) bool { return l(z) && r(z) }, true
		case l == nil:
			return r, true
		case r == nil:
			return l, true
		}
		return func(z *relation.PageZone) bool { return l(z) || r(z) }, true
	}
	s, ok := classify(e)
	if !ok {
		return nil, false
	}
	p, err := b.resolve(s.col)
	if err != nil {
		return nil, false
	}
	switch {
	case s.other != nil:
		_, err = b.resolve(s.other)
		return nil, err == nil
	case s.op == "is null":
		negate := s.negate
		return func(z *relation.PageZone) bool {
			if negate {
				return z.Cols[p].NullCount == z.Rows
			}
			return z.Cols[p].NullCount == 0
		}, true
	case s.op == "in" && s.negate:
		return nil, true // NOT IN excludes a finite set; min/max bounds say nothing
	case s.op == "in":
		lits := s.lits
		return func(z *relation.PageZone) bool {
			cz := &z.Cols[p]
			if cz.Min.IsNull() {
				return true
			}
			for k := range lits {
				if lits[k].IsNull() {
					continue
				}
				if relation.ComparePtr(&lits[k], &cz.Min) >= 0 && relation.ComparePtr(&lits[k], &cz.Max) <= 0 {
					return false // this literal may match a cell in the page
				}
			}
			return true
		}, true
	case s.nullLit():
		return func(*relation.PageZone) bool { return true }, true
	case s.op == "!=":
		lit := s.lits[0]
		return func(z *relation.PageZone) bool {
			cz := &z.Cols[p]
			return cz.Min.IsNull() || relation.ComparePtr(&lit, &cz.Min) == 0 && relation.ComparePtr(&lit, &cz.Max) == 0
		}, true
	}
	iv, _ := s.interval()
	negate := s.negate
	return func(z *relation.PageZone) bool {
		cz := &z.Cols[p]
		if cz.Min.IsNull() {
			return true // no non-NULL cell in the page
		}
		if negate {
			return relation.ComparePtr(&cz.Min, &iv.lo) >= 0 && relation.ComparePtr(&cz.Max, &iv.hi) <= 0
		}
		return iv.disjoint(&cz.Min, &cz.Max)
	}, true
}

// zoneContains compiles a WHERE predicate into the containment test of a
// page: true when provably every row of the page satisfies the predicate, so
// an aggregate may take the page's stored partial instead of filtering its
// rows (relation.PageAggs). It mirrors zoneFilter — the same gate, so ok is
// false unless every leaf is a classified shape whose columns resolve — and
// must be conservative in the other direction: returning false is always
// safe. With ok true, zc is nil when the predicate can never contain a page.
//
// Rules per shape. A zone's Min/Max bound only the non-NULL cells, and a
// NULL cell satisfies no comparison, so every shape but IS NULL needs its
// column's NullCount to be 0:
//
//   - Range shapes (=, <, <=, >, >=, BETWEEN): [Min, Max] lies inside the
//     interval. NOT BETWEEN: [Min, Max] is disjoint from [lo, hi].
//   - col != lit: lit lies outside [Min, Max].
//   - IN: the page is constant (Min == Max) on a non-NULL list literal.
//   - IS NULL: NullCount == Rows; IS NOT NULL: NullCount == 0.
//   - A NULL literal satisfies no row: never.
//   - AND: both sides contain the page. OR: either side does.
//   - Column-vs-column comparisons and NOT IN: never.
func (b binder) zoneContains(e Expr) (zc func(*relation.PageZone) bool, ok bool) {
	if x, isBin := e.(*BinaryExpr); isBin && (x.Op == "AND" || x.Op == "OR") {
		l, lok := b.zoneContains(x.Left)
		r, rok := b.zoneContains(x.Right)
		switch {
		case !lok || !rok:
			return nil, false
		case x.Op == "AND" && (l == nil || r == nil):
			return nil, true
		case x.Op == "AND":
			return func(z *relation.PageZone) bool { return l(z) && r(z) }, true
		case l == nil:
			return r, true
		case r == nil:
			return l, true
		}
		return func(z *relation.PageZone) bool { return l(z) || r(z) }, true
	}
	s, ok := classify(e)
	if !ok {
		return nil, false
	}
	p, err := b.resolve(s.col)
	if err != nil {
		return nil, false
	}
	switch {
	case s.other != nil:
		_, err = b.resolve(s.other)
		return nil, err == nil
	case s.op == "is null":
		negate := s.negate
		return func(z *relation.PageZone) bool {
			if negate {
				return z.Cols[p].NullCount == 0
			}
			return z.Cols[p].NullCount == z.Rows
		}, true
	case s.op == "in" && s.negate, s.nullLit() && s.op != "in":
		return nil, true
	case s.op == "in":
		lits := s.lits
		return func(z *relation.PageZone) bool {
			cz := &z.Cols[p]
			if cz.NullCount > 0 || relation.ComparePtr(&cz.Min, &cz.Max) != 0 {
				return false
			}
			for k := range lits {
				if !lits[k].IsNull() && relation.ComparePtr(&lits[k], &cz.Min) == 0 {
					return true
				}
			}
			return false
		}, true
	case s.op == "!=":
		iv := interval{lo: s.lits[0], hi: s.lits[0], loIncl: true, hiIncl: true}
		return func(z *relation.PageZone) bool {
			cz := &z.Cols[p]
			return cz.NullCount == 0 && iv.disjoint(&cz.Min, &cz.Max)
		}, true
	}
	iv, _ := s.interval()
	negate := s.negate
	return func(z *relation.PageZone) bool {
		cz := &z.Cols[p]
		if cz.NullCount > 0 {
			return false
		}
		if negate {
			return iv.disjoint(&cz.Min, &cz.Max)
		}
		return iv.contains(&cz.Min, &cz.Max)
	}, true
}
