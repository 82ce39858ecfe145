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
}

// Propagate returns a copy of oldF with the new log-bearing statements of
// newF injected at their aligned positions. Neither input is mutated.
func Propagate(oldF, newF *File) (*File, PropagateResult) {
	res := &PropagateResult{}
	merged := propagateBlock(cloneStmts(oldF.Stmts), newF.Stmts, res)
	return &File{Name: oldF.Name, Stmts: merged}, *res
}

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

	// Start from a copy of the old block; compute, for each old index, the
	// list of new statements to inject immediately after it (or at the
	// front for index -1).
	injections := make(map[int][]Stmt) // old index (insert after) -> stmts
	lastMatchedOld := -1
	for j, s := range newStmts {
		if align[j] >= 0 {
			lastMatchedOld = align[j]
			res.Matched++
			// Recurse into matched compound statements.
			oldStmt := oldStmts[align[j]]
			newBodies := Body(s)
			oldBodies := Body(oldStmt)
			if len(newBodies) == len(oldBodies) && len(newBodies) > 0 {
				for bi := range newBodies {
					mergedBody := propagateBlock(oldBodies[bi], newBodies[bi], res)
					SetBody(oldStmt, bi, mergedBody)
				}
			}
			continue
		}
		// New statement: inject only if log-bearing.
		if isLogBearing(s) {
			injections[lastMatchedOld] = append(injections[lastMatchedOld], markInjected(s))
			res.Injected++
		}
	}

	if len(injections) == 0 {
		return oldStmts
	}
	var out []Stmt
	out = append(out, injections[-1]...)
	for i, s := range oldStmts {
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
// statements any of whose bodies contain a log-bearing statement.
func isLogBearing(s Stmt) bool {
	switch x := s.(type) {
	case *ExprStmt:
		if call, ok := x.X.(*CallExpr); ok {
			return call.Fn == "flor.log" || call.Fn == "flor.commit"
		}
		return false
	case *AssignStmt:
		// A new assignment is carried along as a derivation for subsequent
		// new logs (e.g. `ratio = loss / acc` followed by
		// `flor.log("ratio", ratio)`).
		return !containsFlorCall(x.Value) || containsOnlyFlorLog(x.Value)
	default:
		for _, body := range Body(s) {
			for _, child := range body {
				if isLogBearing(child) {
					return true
				}
			}
		}
		return false
	}
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

// cloneStmt deep-copies a statement so injection into multiple historical
// versions never aliases AST nodes.
func cloneStmt(s Stmt) Stmt {
	switch x := s.(type) {
	case *AssignStmt:
		return &AssignStmt{pos: x.pos, Target: cloneExpr(x.Target), Value: cloneExpr(x.Value)}
	case *ExprStmt:
		return &ExprStmt{pos: x.pos, X: cloneExpr(x.X)}
	case *IfStmt:
		return &IfStmt{pos: x.pos, Cond: cloneExpr(x.Cond), Then: cloneStmts(x.Then), Else: cloneStmts(x.Else)}
	case *ForStmt:
		return &ForStmt{pos: x.pos, Var: x.Var, Iterable: cloneExpr(x.Iterable), Body: cloneStmts(x.Body)}
	case *WhileStmt:
		return &WhileStmt{pos: x.pos, Cond: cloneExpr(x.Cond), Body: cloneStmts(x.Body)}
	case *FuncStmt:
		return &FuncStmt{pos: x.pos, Name: x.Name, Params: append([]string(nil), x.Params...), Body: cloneStmts(x.Body)}
	case *ReturnStmt:
		var e Expr
		if x.X != nil {
			e = cloneExpr(x.X)
		}
		return &ReturnStmt{pos: x.pos, X: e}
	case *BreakStmt:
		return &BreakStmt{pos: x.pos}
	case *ContinueStmt:
		return &ContinueStmt{pos: x.pos}
	case *WithStmt:
		return &WithStmt{pos: x.pos, Call: cloneExpr(x.Call).(*CallExpr), Body: cloneStmts(x.Body)}
	default:
		return s
	}
}

// markInjected zeroes a statement's position (recursively) so downstream
// consumers — replay mode planning, the CLI's diff display — can identify
// statements that were added by propagation rather than written in the
// original version.
func markInjected(s Stmt) Stmt {
	c := cloneStmt(s)
	switch x := c.(type) {
	case *AssignStmt:
		x.pos = pos{0}
	case *ExprStmt:
		x.pos = pos{0}
	case *IfStmt:
		x.pos = pos{0}
	case *ForStmt:
		x.pos = pos{0}
	case *WhileStmt:
		x.pos = pos{0}
	case *FuncStmt:
		x.pos = pos{0}
	case *ReturnStmt:
		x.pos = pos{0}
	case *BreakStmt:
		x.pos = pos{0}
	case *ContinueStmt:
		x.pos = pos{0}
	case *WithStmt:
		x.pos = pos{0}
	}
	for bi, body := range Body(c) {
		marked := make([]Stmt, len(body))
		for i, child := range body {
			marked[i] = markInjected(child)
		}
		SetBody(c, bi, marked)
	}
	return c
}

func cloneStmts(stmts []Stmt) []Stmt {
	out := make([]Stmt, len(stmts))
	for i, s := range stmts {
		out[i] = cloneStmt(s)
	}
	return out
}

func cloneExpr(e Expr) Expr {
	switch x := e.(type) {
	case *NumberLit:
		c := *x
		return &c
	case *StringLit:
		c := *x
		return &c
	case *BoolLit:
		c := *x
		return &c
	case *NilLit:
		c := *x
		return &c
	case *NameExpr:
		c := *x
		return &c
	case *ListLit:
		items := make([]Expr, len(x.Items))
		for i, it := range x.Items {
			items[i] = cloneExpr(it)
		}
		return &ListLit{pos: x.pos, Items: items}
	case *DictLit:
		keys := make([]Expr, len(x.Keys))
		vals := make([]Expr, len(x.Vals))
		for i := range x.Keys {
			keys[i] = cloneExpr(x.Keys[i])
			vals[i] = cloneExpr(x.Vals[i])
		}
		return &DictLit{pos: x.pos, Keys: keys, Vals: vals}
	case *IndexExpr:
		return &IndexExpr{pos: x.pos, X: cloneExpr(x.X), Index: cloneExpr(x.Index)}
	case *CallExpr:
		args := make([]Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = cloneExpr(a)
		}
		kwVals := make([]Expr, len(x.KwVals))
		for i, a := range x.KwVals {
			kwVals[i] = cloneExpr(a)
		}
		return &CallExpr{pos: x.pos, Fn: x.Fn, Args: args, KwNames: append([]string(nil), x.KwNames...), KwVals: kwVals}
	case *BinaryExpr:
		return &BinaryExpr{pos: x.pos, Op: x.Op, L: cloneExpr(x.L), R: cloneExpr(x.R)}
	case *UnaryExpr:
		return &UnaryExpr{pos: x.pos, Op: x.Op, X: cloneExpr(x.X)}
	default:
		return e
	}
}

// LoggedNames returns the set of statically-known value names appearing in
// flor.log(name, ...) calls with literal name arguments.
func LoggedNames(f *File) map[string]bool {
	out := make(map[string]bool)
	var walk func(stmts []Stmt)
	walk = func(stmts []Stmt) {
		for _, s := range stmts {
			if es, ok := s.(*ExprStmt); ok {
				if call, isCall := es.X.(*CallExpr); isCall && call.Fn == "flor.log" && len(call.Args) >= 1 {
					if lit, isLit := call.Args[0].(*StringLit); isLit {
						out[lit.S] = true
					}
				}
			}
			for _, b := range Body(s) {
				walk(b)
			}
		}
	}
	walk(f.Stmts)
	return out
}
