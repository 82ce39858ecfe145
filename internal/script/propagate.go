package script

import (
	"strings"

	"flordb/internal/diffkit"
)

// Propagation implements part (a) of the paper's multiversion hindsight
// logging "magic trick" (§2): given the latest version of a script with new
// logging statements, inject those statements into the correct locations of
// a prior version of the script.
//
// The algorithm is a statement-level tree alignment in the spirit of
// fine-grained source differencing [6]:
//
//  1. Align the statement sequences of corresponding blocks using Myers
//     diff over canonical statement signatures (block headers for compound
//     statements, a flor.loop header by its loop's name; full renderings
//     for simple statements).
//  2. Recurse into the bodies of matched compound statements.
//  3. Any *new* statement that is a flor.log / flor.commit call (or an
//     assignment feeding one) is injected into the old block at the aligned
//     position — anchored after the nearest preceding matched statement.
//
// Statements that are new but not log-bearing are NOT injected: hindsight
// logging adds observation, never computation (the paper's replay extracts
// "arbitrary expression values derivable from [recorded] state"; the
// assignments we carry along are the derivations feeding new logs).

// PropagateResult reports what propagation did.
type PropagateResult struct {
	Injected int // statements inserted into the old version
	Matched  int // statements aligned between the versions
	// injected holds each inserted statement and every statement inside
	// one.
	injected map[Stmt]bool
}

// IsInjected reports whether propagation inserted s into the merged file,
// or s lies inside a statement it inserted.
func (r PropagateResult) IsInjected(s Stmt) bool { return r.injected[s] }

func (r *PropagateResult) inject(s Stmt) {
	r.Injected++
	if r.injected == nil {
		r.injected = make(map[Stmt]bool)
	}
	Inspect([]Stmt{s}, func(x Stmt) bool {
		r.injected[x] = true
		return false
	})
}

// Propagate returns oldF with the new log-bearing statements of newF
// injected at their aligned positions. The merged file shares the inputs'
// nodes: an old statement whose bodies gained nothing and every injected
// statement appear as themselves, and a matched compound statement whose
// bodies gained an injection is a shallow copy holding the merged bodies.
// Neither input is mutated, and an injected statement keeps its line in
// newF.
func Propagate(oldF, newF *File) (*File, PropagateResult) {
	var res PropagateResult
	merged := propagateBlock(oldF.Stmts, newF.Stmts, &res)
	return &File{Name: oldF.Name, Stmts: merged}, res
}

// propagateBlock returns oldStmts itself when nothing was injected into the
// block or below it.
func propagateBlock(oldStmts, newStmts []Stmt, res *PropagateResult) []Stmt {
	oldSigs := make([]string, len(oldStmts))
	for i, s := range oldStmts {
		oldSigs[i] = alignSignature(s)
	}
	newSigs := make([]string, len(newStmts))
	for i, s := range newStmts {
		newSigs[i] = alignSignature(s)
	}
	// align[j] = index in old of the statement matching new[j], or -1.
	align := diffkit.Align(oldSigs, newSigs)

	// For each old index, the new statements to inject immediately after
	// it (or at the front for index -1), and the merged copy of a matched
	// compound statement whose bodies gained an injection.
	before := res.Injected
	injections := make(map[int][]Stmt)
	var merged map[int]Stmt
	lastMatchedOld := -1
	for j, s := range newStmts {
		i := align[j]
		if i < 0 {
			// New statement: inject only if log-bearing.
			if isLogBearing(s) {
				injections[lastMatchedOld] = append(injections[lastMatchedOld], s)
				res.inject(s)
			}
			continue
		}
		lastMatchedOld = i
		res.Matched++
		// Recurse into matched compound statements.
		oldBodies, newBodies := Body(oldStmts[i]), Body(s)
		if len(oldBodies) != len(newBodies) {
			continue
		}
		n := res.Injected
		for bi := range oldBodies {
			oldBodies[bi] = propagateBlock(oldBodies[bi], newBodies[bi], res)
		}
		if res.Injected != n {
			if merged == nil {
				merged = make(map[int]Stmt)
			}
			merged[i] = withBodies(oldStmts[i], oldBodies)
		}
	}

	if res.Injected == before {
		return oldStmts
	}
	var out []Stmt
	out = append(out, injections[-1]...)
	for i, s := range oldStmts {
		if m, ok := merged[i]; ok {
			s = m
		}
		out = append(out, s)
		out = append(out, injections[i]...)
	}
	return out
}

// alignSignature is the signature a statement aligns by. A flor.loop header
// aligns by the loop's identity, its variable and literal name, so a loop
// whose bound changed between the versions is still the same loop; a loop
// whose name is not a string literal keeps its rendered header.
func alignSignature(s Stmt) string {
	if f, ok := s.(*ForStmt); ok {
		if c, ok := f.Iterable.(*CallExpr); ok && c.Fn == "flor.loop" && len(c.Args) > 0 {
			if name, ok := c.Args[0].(*StringLit); ok {
				return "for " + f.Var + " in flor.loop(" + name.Render() + ")"
			}
		}
	}
	return s.Signature()
}

// isLogBearing reports whether a statement should be carried into history:
// flor.log / flor.commit expression statements, assignments whose value
// feeds a later log (conservatively: any assignment whose right-hand side
// contains no flor call is allowed — it is a pure derivation), and compound
// statements that hold a log-bearing statement.
func isLogBearing(s Stmt) bool {
	return Inspect([]Stmt{s}, func(c Stmt) bool {
		switch x := c.(type) {
		case *ExprStmt:
			call, ok := x.X.(*CallExpr)
			return ok && (call.Fn == "flor.log" || call.Fn == "flor.commit")
		case *AssignStmt:
			// A new assignment is carried along as a derivation for
			// subsequent new logs (e.g. `ratio = loss / acc` followed by
			// `flor.log("ratio", ratio)`).
			return !containsFlorCall(x.Value) || containsOnlyFlorLog(x.Value)
		}
		return false
	})
}

func containsFlorCall(e Expr) bool {
	found := false
	WalkExpr(e, func(x Expr) {
		if c, ok := x.(*CallExpr); ok && strings.HasPrefix(c.Fn, "flor.") {
			found = true
		}
	})
	return found
}

func containsOnlyFlorLog(e Expr) bool {
	ok := true
	WalkExpr(e, func(x Expr) {
		if c, isCall := x.(*CallExpr); isCall && strings.HasPrefix(c.Fn, "flor.") && c.Fn != "flor.log" {
			ok = false
		}
	})
	return ok
}

// WalkExpr calls fn on e and on every expression nested in it, parents
// first.
func WalkExpr(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch x := e.(type) {
	case *ListLit:
		for _, it := range x.Items {
			WalkExpr(it, fn)
		}
	case *DictLit:
		for i := range x.Keys {
			WalkExpr(x.Keys[i], fn)
			WalkExpr(x.Vals[i], fn)
		}
	case *IndexExpr:
		WalkExpr(x.X, fn)
		WalkExpr(x.Index, fn)
	case *CallExpr:
		for _, a := range x.Args {
			WalkExpr(a, fn)
		}
		for _, a := range x.KwVals {
			WalkExpr(a, fn)
		}
	case *BinaryExpr:
		WalkExpr(x.L, fn)
		WalkExpr(x.R, fn)
	case *UnaryExpr:
		WalkExpr(x.X, fn)
	}
}

// LoggedNames returns the set of statically-known value names appearing in
// flor.log(name, ...) calls with literal name arguments.
func LoggedNames(f *File) map[string]bool {
	out := make(map[string]bool)
	Inspect(f.Stmts, func(s Stmt) bool {
		if es, ok := s.(*ExprStmt); ok {
			if call, isCall := es.X.(*CallExpr); isCall && call.Fn == "flor.log" && len(call.Args) >= 1 {
				if lit, isLit := call.Args[0].(*StringLit); isLit {
					out[lit.S] = true
				}
			}
		}
		return false
	})
	return out
}
