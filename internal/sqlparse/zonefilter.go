package sqlparse

import "flordb/internal/relation"

// zoneVerdict is what a page's zone proves about a WHERE predicate over the
// page's rows. Zone maps answer two questions with it: a page where no row
// can pass is pruned (binder.zoneFilter), and a page where every row passes
// is contained — an aggregate may take its stored partial instead of
// filtering its rows (binder.zoneContains, relation.PageAggs).
type zoneVerdict uint8

const (
	zoneSome zoneVerdict = iota // the zone proves neither
	zoneNone                    // provably no row of the page passes
	zoneAll                     // provably every row of the page passes
)

// zoneTest is a compiled verdict. With wantAll false it answers only
// zoneNone or zoneSome and does no work toward zoneAll, so pruning pays only
// for its own question.
type zoneTest func(z *relation.PageZone, wantAll bool) zoneVerdict

// zoneAnswers records which verdicts besides zoneSome a test can ever give.
type zoneAnswers uint8

const (
	canNone zoneAnswers = 1 << iota
	canAll
)

func alwaysSome(*relation.PageZone, bool) zoneVerdict { return zoneSome }

// zoneVerdict compiles a WHERE predicate into its zone test, with the
// verdicts it can ever give; t is nil when it can give neither zoneNone nor
// zoneAll.
//
// ok is false unless every leaf of e is a classified shape whose columns
// resolve (AND/OR trees of them). That is the gate on both uses: any other
// leaf could raise a deferred evaluation error on a row, and skipping the
// page, or taking its partial, would suppress that error (binder.compile's
// AND evaluates the right side when the left is NULL, so even one AND
// conjunct can carry another's error). Shapes never produce evaluation
// errors, so under this gate both are behavior-identical to the serial
// scan.
//
// Each verdict is a theorem over the zone (DESIGN §13 has the table). A
// zone's Min/Max bound only the non-NULL cells (both NULL when the page has
// none) and a NULL cell satisfies no comparison, so zoneNone may ignore NULL
// cells, and zoneAll needs the column's NullCount to be 0 for every shape
// but IS [NOT] NULL. Each leaf tests zoneNone first. Ordering uses
// relation.ComparePtr, the same total order the kernels filter by, so
// numeric cross-type comparisons agree with them.
func (b binder) zoneVerdict(e Expr) (t zoneTest, can zoneAnswers, ok bool) {
	if x, isBin := e.(*BinaryExpr); isBin && (x.Op == "AND" || x.Op == "OR") {
		l, lcan, lok := b.zoneVerdict(x.Left)
		r, rcan, rok := b.zoneVerdict(x.Right)
		if !lok || !rok {
			return nil, 0, false
		}
		if x.Op == "AND" {
			can = (lcan|rcan)&canNone | lcan&rcan&canAll
		} else {
			can = lcan&rcan&canNone | (lcan|rcan)&canAll
		}
		if can == 0 {
			return nil, 0, true
		}
		if l == nil {
			l = alwaysSome
		}
		if r == nil {
			r = alwaysSome
		}
		if x.Op == "AND" {
			return zoneAnd(l, r), can, true
		}
		return zoneOr(l, r), can, true
	}
	s, ok := classify(e)
	if !ok {
		return nil, 0, false
	}
	p, err := b.resolve(s.col)
	if err != nil {
		return nil, 0, false
	}
	switch {
	case s.other != nil:
		_, err = b.resolve(s.other)
		return nil, 0, err == nil
	case s.op == "is null":
		negate := s.negate
		return func(z *relation.PageZone, wantAll bool) zoneVerdict {
			passing := z.Cols[p].NullCount // the cells IS NULL passes
			if negate {
				passing = z.Rows - passing
			}
			switch {
			case passing == 0:
				return zoneNone
			case wantAll && passing == z.Rows:
				return zoneAll
			}
			return zoneSome
		}, canNone | canAll, true
	case s.op == "in" && s.negate:
		return nil, 0, true // NOT IN excludes a finite set; min/max bounds say nothing
	case s.op == "in":
		lits := s.lits
		return func(z *relation.PageZone, wantAll bool) zoneVerdict {
			cz := &z.Cols[p]
			if cz.Min.IsNull() {
				return zoneNone
			}
			for k := range lits {
				if !lits[k].IsNull() && relation.ComparePtr(&lits[k], &cz.Min) >= 0 && relation.ComparePtr(&lits[k], &cz.Max) <= 0 {
					// This literal may match a cell of the page, and it
					// matches every cell of a page constant on it.
					if wantAll && cz.NullCount == 0 && relation.ComparePtr(&cz.Min, &cz.Max) == 0 {
						return zoneAll
					}
					return zoneSome
				}
			}
			return zoneNone
		}, canNone | canAll, true
	case s.nullLit():
		return func(*relation.PageZone, bool) zoneVerdict { return zoneNone }, canNone, true
	}
	iv, _ := s.interval()
	negate := s.negate // NOT BETWEEN admits the complement of its interval
	if s.op == "!=" {
		iv, negate = interval{lo: s.lits[0], hi: s.lits[0], loIncl: true, hiIncl: true}, true
	}
	return func(z *relation.PageZone, wantAll bool) zoneVerdict {
		cz := &z.Cols[p]
		switch {
		case cz.Min.IsNull() || !negate && iv.disjoint(&cz.Min, &cz.Max) || negate && iv.contains(&cz.Min, &cz.Max):
			return zoneNone
		case wantAll && cz.NullCount == 0 && (!negate && iv.contains(&cz.Min, &cz.Max) || negate && iv.disjoint(&cz.Min, &cz.Max)):
			return zoneAll
		}
		return zoneSome
	}, canNone | canAll, true
}

// zoneAnd: no row passes if no row passes either side; every row passes if
// every row passes both.
func zoneAnd(l, r zoneTest) zoneTest {
	return func(z *relation.PageZone, wantAll bool) zoneVerdict {
		lv := l(z, wantAll)
		if lv == zoneNone {
			return zoneNone
		}
		return r(z, wantAll && lv == zoneAll)
	}
}

// zoneOr: no row passes if none passes either side; every row passes if
// every row passes one side.
func zoneOr(l, r zoneTest) zoneTest {
	return func(z *relation.PageZone, wantAll bool) zoneVerdict {
		lv := l(z, wantAll)
		if lv == zoneAll || lv == zoneSome && !wantAll {
			return lv
		}
		rv := r(z, wantAll)
		if lv == zoneNone || rv == zoneAll {
			return rv
		}
		return zoneSome
	}
}

// zoneFilter is the pruning use of zoneVerdict: a relation.ZoneFilter that
// skips the pages where no row passes, nil when the predicate can never
// skip one. ok is zoneVerdict's gate.
func (b binder) zoneFilter(e Expr) (relation.ZoneFilter, bool) {
	t, can, ok := b.zoneVerdict(e)
	if can&canNone == 0 {
		return nil, ok
	}
	return func(z *relation.PageZone) bool { return t(z, false) == zoneNone }, true
}

// zoneContains is the containment use of zoneVerdict: true for the pages
// where every row passes, nil when the predicate can never contain one. ok
// is zoneVerdict's gate.
func (b binder) zoneContains(e Expr) (func(*relation.PageZone) bool, bool) {
	t, can, ok := b.zoneVerdict(e)
	if can&canAll == 0 {
		return nil, ok
	}
	return func(z *relation.PageZone) bool { return t(z, true) == zoneAll }, true
}
