// Package walerrcheck defines an Analyzer that forbids discarding the
// error of a durability call. The WAL's crash-ordering contract (DESIGN
// §7) only holds if every fsync, rename, truncate, and commit append
// either succeeds or surfaces its failure: a swallowed error turns "the
// commit point is durable" into "the commit point is probably durable",
// which the crash matrix cannot defend against.
//
// Durability calls are identified by shape, not by import path, so the
// analyzer works on any package (and on its own fixtures):
//
//   - os.Rename;
//   - any method named Sync — (*os.File).Sync, storage.File.Sync and
//     friends;
//   - the storage write seam (lintutil.SeamCall): Rename and SyncDir on a
//     type named *FS, and the Install / WriteFileAtomic functions that
//     publish a file by fsync, rename and directory fsync;
//   - methods named Append, AppendCommit, Flush, Seal, or Truncate on a
//     type named WAL.
//
// An error is "discarded" when the call is an expression statement, a
// go/defer statement, or an assignment that sends the error result to
// the blank identifier. Capturing the error into a variable or a
// deferred-error slot (the *error registration pattern used by
// internal/sqlparse's scratch-row fallback) counts as handled — deeper
// "was it checked" flow is staticcheck's job, not this analyzer's.
package walerrcheck

import (
	"go/ast"
	"go/types"

	"flordb/internal/lint/lintutil"
	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

const doc = "report discarded errors from WAL, fsync, and rename durability calls"

// Analyzer is the walerrcheck analyzer.
var Analyzer = &analysis.Analyzer{
	Name:     "walerrcheck",
	Doc:      doc,
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

func init() { lintutil.AddExcludeFlag(Analyzer) }

// walMethods are the durability methods of a type named WAL.
var walMethods = map[string]bool{
	"Append": true, "AppendCommit": true, "Flush": true, "Seal": true, "Truncate": true,
}

func run(pass *analysis.Pass) (any, error) {
	if lintutil.Excluded(pass) {
		return nil, nil
	}
	rep := lintutil.NewReporter(pass)
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)

	ins.WithStack([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node, push bool, stack []ast.Node) bool {
		if !push {
			return false
		}
		call := n.(*ast.CallExpr)
		what := durabilityCall(pass.TypesInfo, call)
		if what == "" {
			return true
		}
		errIdx, nres := errResult(pass.TypesInfo, call)
		if errIdx < 0 {
			return true
		}
		if parent := enclosing(stack); discards(parent, call, errIdx, nres) {
			rep.Reportf(call.Pos(), "error of durability call %s is discarded; a lost %s failure silently breaks the commit contract", what, what)
		}
		return true
	})
	return nil, nil
}

// durabilityCall classifies call, returning a short human name ("os.Rename",
// "Sync", "WAL.AppendCommit") or "" when the call is not a durability
// boundary.
func durabilityCall(info *types.Info, call *ast.CallExpr) string {
	if lintutil.IsPkgCall(info, call, "os", "Rename") {
		return "os.Rename"
	}
	name := lintutil.MethodName(call)
	switch {
	case name == "Sync":
		return "Sync"
	case walMethods[name] && lintutil.ReceiverTypeName(info, call) == "WAL":
		return "WAL." + name
	}
	return lintutil.SeamCall(info, call)
}

// errResult returns the index of the last result of type error in the
// call's signature and the total result count, or (-1, 0).
func errResult(info *types.Info, call *ast.CallExpr) (int, int) {
	tv, ok := info.Types[call.Fun]
	if !ok {
		return -1, 0
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return -1, 0
	}
	res := sig.Results()
	for i := res.Len() - 1; i >= 0; i-- {
		if named, ok := res.At(i).Type().(*types.Named); ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil {
			return i, res.Len()
		}
	}
	return -1, 0
}

// enclosing returns the innermost non-CallExpr ancestor of the call.
func enclosing(stack []ast.Node) ast.Node {
	if len(stack) < 2 {
		return nil
	}
	return stack[len(stack)-2]
}

// discards reports whether the statement containing the call throws the
// error result away.
func discards(parent ast.Node, call *ast.CallExpr, errIdx, nres int) bool {
	switch p := parent.(type) {
	case *ast.ExprStmt:
		return true
	case *ast.GoStmt:
		return p.Call == call
	case *ast.DeferStmt:
		return p.Call == call
	case *ast.AssignStmt:
		// Single call on the RHS: the LHS position of the error result
		// decides. Multi-value contexts other than that are treated as
		// captured.
		if len(p.Rhs) != 1 || p.Rhs[0] != call || errIdx >= len(p.Lhs) {
			return false
		}
		if nres != len(p.Lhs) {
			return false
		}
		id, ok := p.Lhs[errIdx].(*ast.Ident)
		return ok && id.Name == "_"
	}
	return false
}
