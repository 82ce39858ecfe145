// Package snapshotrelease defines an Analyzer that enforces the
// snapshot-pin discipline of DESIGN §8: every pinned MVCC view —
// Database.Snapshot(), Database.SnapshotLatest(), Database.SnapshotAt(),
// Session.Reader(), Session.LatestReader(), Session.ReaderAt() — must be
// released (Release/Close) on every control-flow path, lostcancel-style.
// Pins are cheap but counted: the pin count feeds the /healthz
// snapshot_pins gauge, so a request handler that forgets Close makes that
// gauge climb without bound under load and hides the handler's real pins.
//
// An acquisition is a call to a method named Snapshot, SnapshotLatest,
// SnapshotAt, Reader, ReaderAt, or LatestReader whose first result has a
// Release or Close method — the method-set requirement keeps unrelated
// Reader()/Snapshot() methods (io.Reader factories, model weight
// snapshots) out of scope. The analyzer then requires, for the local
// variable holding the result:
//
//   - a v.Release()/v.Close() call or a `defer v.Close()` on every CFG
//     path from the acquisition to every function exit;
//   - EXCEPT exits taken when the acquisition itself failed: a return
//     inside an if-statement whose condition mentions the err (or ok)
//     variable bound by the same assignment is exempt, since the view
//     is nil there.
//
// Ownership transfer ends the analysis: a view that is returned,
// passed as a call argument, stored in a composite literal, field, or
// captured by a closure escapes, and whoever receives it owns the
// release (the public constructors Session.Reader/LatestReader return
// their view — the caller closes it).
//
// A pin acquired and immediately dropped (`s.Reader()` as a bare
// expression statement, or assigned to _) is always reported.
package snapshotrelease

import (
	"go/ast"
	"go/types"

	"flordb/internal/lint/lintutil"
	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/ctrlflow"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"golang.org/x/tools/go/cfg"
)

const doc = "report MVCC snapshot pins (Snapshot/Reader/LatestReader) not released on all paths"

// Analyzer is the snapshotrelease analyzer.
var Analyzer = &analysis.Analyzer{
	Name:     "snapshotrelease",
	Doc:      doc,
	Requires: []*analysis.Analyzer{inspect.Analyzer, ctrlflow.Analyzer},
	Run:      run,
}

func init() { lintutil.AddExcludeFlag(Analyzer) }

// acquireMethods are the pinning entry points, by name. ReaderAt and
// SnapshotAt are the time-travel variants: they pin a historical epoch, and
// a leaked historical pin additionally blocks epoch-retention GC at that
// epoch forever.
var acquireMethods = map[string]bool{
	"Snapshot": true, "SnapshotLatest": true, "Reader": true, "LatestReader": true,
	"ReaderAt": true, "SnapshotAt": true,
}

// releaseMethods are the accepted release calls, by name.
var releaseMethods = []string{"Release", "Close"}

func run(pass *analysis.Pass) (any, error) {
	if lintutil.Excluded(pass) {
		return nil, nil
	}
	rep := lintutil.NewReporter(pass)
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	cfgs := pass.ResultOf[ctrlflow.Analyzer].(*ctrlflow.CFGs)

	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fn := n.(*ast.FuncDecl)
		if fn.Body == nil {
			return
		}
		checkFunc(pass, rep, fn, cfgs.FuncDecl(fn))
	})
	return nil, nil
}

// acquisition is one pinning call bound to a local variable.
type acquisition struct {
	assign *ast.AssignStmt
	call   *ast.CallExpr
	v      *types.Var // the view variable; nil for dropped results
	errObj types.Object
	method string
}

func checkFunc(pass *analysis.Pass, rep *lintutil.Reporter, fn *ast.FuncDecl, g *cfg.CFG) {
	info := pass.TypesInfo
	var acqs []acquisition
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // separate ownership domain
		}
		switch st := n.(type) {
		case *ast.ExprStmt:
			if call, ok := st.X.(*ast.CallExpr); ok && isAcquire(info, call) {
				rep.Reportf(call.Pos(), "%s pins a snapshot that is immediately dropped; bind it and release it (or do not pin)", lintutil.MethodName(call))
			}
		case *ast.AssignStmt:
			if len(st.Rhs) != 1 {
				return true
			}
			call, ok := st.Rhs[0].(*ast.CallExpr)
			if !ok || !isAcquire(info, call) {
				return true
			}
			a := acquisition{assign: st, call: call, method: lintutil.MethodName(call)}
			if id, ok := st.Lhs[0].(*ast.Ident); ok {
				if id.Name == "_" {
					rep.Reportf(call.Pos(), "%s pins a snapshot that is assigned to the blank identifier; bind it and release it", a.method)
					return true
				}
				a.v = objOf(info, id)
			}
			if len(st.Lhs) > 1 {
				if id, ok := st.Lhs[1].(*ast.Ident); ok && id.Name != "_" {
					a.errObj = objOf(info, id)
				}
			}
			if a.v != nil {
				acqs = append(acqs, a)
			}
		}
		return true
	})
	if len(acqs) == 0 || g == nil {
		return
	}
	for _, a := range acqs {
		checkAcquisition(pass, rep, fn, g, a)
	}
}

// isAcquire reports whether call is a pin: method name in the acquire
// set and a first result owning a Release or Close method.
func isAcquire(info *types.Info, call *ast.CallExpr) bool {
	name := lintutil.MethodName(call)
	if !acquireMethods[name] {
		return false
	}
	sel := call.Fun.(*ast.SelectorExpr)
	if _, isMethod := info.Selections[sel]; !isMethod {
		// Package-level function named Reader etc. — not a pin.
		return false
	}
	tv, ok := info.Types[call]
	if !ok {
		return false
	}
	t := tv.Type
	if tuple, ok := t.(*types.Tuple); ok {
		if tuple.Len() == 0 {
			return false
		}
		t = tuple.At(0).Type()
	}
	return lintutil.HasMethod(t, releaseMethods...) != ""
}

func objOf(info *types.Info, id *ast.Ident) *types.Var {
	if obj, ok := info.Defs[id].(*types.Var); ok {
		return obj
	}
	if obj, ok := info.Uses[id].(*types.Var); ok {
		return obj
	}
	return nil
}

// use classifies one appearance of the view variable.
type use int

const (
	useNeutral use = iota // receiver of a method call, nil comparison, ...
	useRelease            // v.Release() / v.Close()
	useDefer              // defer v.Close()
	useEscape             // returned, passed, stored, captured
)

func checkAcquisition(pass *analysis.Pass, rep *lintutil.Reporter, fn *ast.FuncDecl, g *cfg.CFG, a acquisition) {
	info := pass.TypesInfo
	releases := map[ast.Node]bool{} // the release CallExprs (incl. deferred)
	deferred := false
	escaped := false

	// Classify every use of the variable in the function body, tracking
	// the ancestor stack by hand (ast.Inspect calls f(nil) on exit).
	var stack []ast.Node
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if n == nil {
			if len(stack) > 0 {
				stack = stack[:len(stack)-1]
			}
			return true
		}
		stack = append(stack, n)
		if id, ok := n.(*ast.Ident); ok && objOf(info, id) == a.v && id != a.assign.Lhs[0] {
			switch k, rel := classifyUse(info, stack, id, a.v); k {
			case useRelease:
				releases[rel] = true
			case useDefer:
				deferred = true
			case useEscape:
				escaped = true
			}
		}
		return true
	})

	if escaped {
		return // ownership transferred; receiver releases
	}
	if deferred {
		return // released on every exit by defer
	}
	if len(releases) == 0 {
		rep.Reportf(a.call.Pos(), "snapshot pinned by %s is never released in %s; call Close/Release (or defer it) on every path", a.method, fn.Name.Name)
		return
	}

	// Path-sensitive check: every CFG path from the acquisition to an
	// exit must pass a release, except err-guard exits.
	permitted := permittedReturns(info, fn, a)
	if leaky := findLeak(g, a, releases, permitted); leaky != nil {
		rep.Reportf(a.call.Pos(), "snapshot pinned by %s may not be released on the path reaching line %d; release it on every path or defer the Close", a.method, pass.Fset.Position(leaky.Pos()).Line)
	}
}

// classifyUse decides what one identifier occurrence does with the
// view. The stack runs from fn.Body down to the identifier itself.
func classifyUse(info *types.Info, stack []ast.Node, id *ast.Ident, v *types.Var) (use, ast.Node) {
	// Walk outward: id, then its parent, etc.
	parent := nodeAbove(stack, 1)
	// v.Method(...): id is sel.X.
	if sel, ok := parent.(*ast.SelectorExpr); ok && sel.X == id {
		if call, ok := nodeAbove(stack, 2).(*ast.CallExpr); ok && call.Fun == sel {
			for _, r := range releaseMethods {
				if sel.Sel.Name == r {
					if _, isDefer := nodeAbove(stack, 3).(*ast.DeferStmt); isDefer {
						return useDefer, call
					}
					return useRelease, call
				}
			}
			return useNeutral, nil // other method call on v
		}
		// Field access v.f or method value v.M — conservative escape.
		return useEscape, nil
	}
	switch p := parent.(type) {
	case *ast.CallExpr:
		// v passed as an argument (it cannot be Fun: that is a
		// selector case above, and v itself is not callable here).
		return useEscape, nil
	case *ast.ReturnStmt:
		return useEscape, nil
	case *ast.CompositeLit:
		return useEscape, nil
	case *ast.KeyValueExpr:
		return useEscape, nil
	case *ast.BinaryExpr:
		return useNeutral, nil // v == nil etc.
	case *ast.AssignStmt:
		// Reassigned elsewhere or assigned onward: treat storing v
		// somewhere as escape; writing INTO v's variable is neutral.
		for _, rhs := range p.Rhs {
			if rhs == id {
				return useEscape, nil
			}
		}
		return useNeutral, nil
	case *ast.SendStmt:
		return useEscape, nil
	}
	// Inside a nested FuncLit? Then it is captured.
	for _, n := range stack {
		if _, ok := n.(*ast.FuncLit); ok {
			return useEscape, nil
		}
	}
	return useNeutral, nil
}

func nodeAbove(stack []ast.Node, k int) ast.Node {
	if len(stack) < k+1 {
		return nil
	}
	return stack[len(stack)-1-k]
}

// permittedReturns collects the return statements that sit inside an
// if-statement whose condition mentions the acquisition's err/ok
// variable: on those exits the view is nil and needs no release.
func permittedReturns(info *types.Info, fn *ast.FuncDecl, a acquisition) map[*ast.ReturnStmt]bool {
	out := map[*ast.ReturnStmt]bool{}
	if a.errObj == nil {
		return out
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		ifst, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		mentions := false
		ast.Inspect(ifst.Cond, func(c ast.Node) bool {
			if id, ok := c.(*ast.Ident); ok && info.Uses[id] == a.errObj {
				mentions = true
			}
			return true
		})
		if !mentions {
			return true
		}
		ast.Inspect(ifst.Body, func(b ast.Node) bool {
			if ret, ok := b.(*ast.ReturnStmt); ok {
				out[ret] = true
			}
			return true
		})
		return true
	})
	return out
}

// findLeak walks the CFG from the acquisition; it returns a node
// evidencing an exit reachable without a release (the return
// statement, or the acquisition itself when the exit is implicit), or
// nil when all paths release.
func findLeak(g *cfg.CFG, a acquisition, releases map[ast.Node]bool, permitted map[*ast.ReturnStmt]bool) ast.Node {
	// Locate the block and index holding the acquisition statement.
	startBlock, startIdx := -1, -1
	for i, b := range g.Blocks {
		for j, n := range b.Nodes {
			if n == a.assign {
				startBlock, startIdx = i, j
				break
			}
		}
	}
	if startBlock < 0 {
		return nil // unreachable code or CFG mismatch; do not guess
	}

	containsRelease := func(b *cfg.Block, from int) bool {
		for _, n := range b.Nodes[from:] {
			found := false
			ast.Inspect(n, func(c ast.Node) bool {
				if releases[c] {
					found = true
				}
				return true
			})
			if found {
				return true
			}
		}
		return false
	}

	type state struct{ block, idx int }
	seen := map[state]bool{}
	var stack []state
	push := func(s state) {
		if !seen[s] {
			seen[s] = true
			stack = append(stack, s)
		}
	}
	push(state{startBlock, startIdx + 1})
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		b := g.Blocks[s.block]
		if containsRelease(b, s.idx) {
			continue // this path is closed
		}
		if len(b.Succs) == 0 {
			// Function exit without release.
			if ret := b.Return(); ret != nil && permitted[ret] {
				continue // err-guard exit; view is nil here
			}
			if ret := b.Return(); ret != nil {
				return ret
			}
			return a.call
		}
		for _, succ := range b.Succs {
			push(state{int(succ.Index), 0})
		}
	}
	return nil
}
