// Package lintutil holds the shared machinery of the florvet analyzer
// suite: per-package suppression via each analyzer's -exclude flag,
// per-site suppression via //florvet:ignore comments, and the common
// "skip generated and test files" policy.
//
// Every florvet analyzer reports through a Reporter so the three
// suppression layers behave identically across the suite:
//
//  1. -<analyzer>.exclude=path1,path2 (comma-separated package-path
//     prefixes) silences the analyzer for whole packages; the Makefile
//     and CI pass these for documented architectural exceptions.
//  2. A "//florvet:ignore <analyzer> <reason>" comment on the flagged
//     line, or on the line directly above it, silences one diagnostic.
//     The reason is mandatory by convention (reviewed, not enforced).
//  3. Diagnostics inside _test.go files are dropped: the invariants the
//     suite encodes protect production control flow, and test bodies
//     intentionally construct half-states (torn commits, swallowed
//     WAL errors) to probe the engine.
package lintutil

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// IgnoreDirective is the comment prefix that suppresses one diagnostic.
const IgnoreDirective = "//florvet:ignore"

// AddExcludeFlag registers the standard -exclude flag on an analyzer.
// Call it from the analyzer's package init.
func AddExcludeFlag(a *analysis.Analyzer) {
	a.Flags.String("exclude", "", "comma-separated package path prefixes to skip")
}

// Excluded reports whether the pass's package matches the analyzer's
// -exclude flag and should be skipped entirely.
func Excluded(pass *analysis.Pass) bool {
	f := pass.Analyzer.Flags.Lookup("exclude")
	if f == nil {
		return false
	}
	for _, prefix := range strings.Split(f.Value.String(), ",") {
		prefix = strings.TrimSpace(prefix)
		if prefix != "" && strings.HasPrefix(pass.Pkg.Path(), prefix) {
			return true
		}
	}
	return false
}

// Reporter filters an analyzer's diagnostics through the suppression
// layers shared by the suite.
type Reporter struct {
	pass *analysis.Pass
	name string
	// ignores maps filename -> set of lines covered by an ignore
	// directive naming this analyzer (the directive's own line and the
	// line below it).
	ignores map[string]map[int]bool
}

// NewReporter scans the pass's files for ignore directives and returns
// a Reporter for the analyzer.
func NewReporter(pass *analysis.Pass) *Reporter {
	r := &Reporter{pass: pass, name: pass.Analyzer.Name, ignores: make(map[string]map[int]bool)}
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, IgnoreDirective)
				if !ok {
					continue
				}
				fields := strings.Fields(rest)
				if len(fields) == 0 || fields[0] != r.name {
					continue
				}
				pos := pass.Fset.Position(c.Pos())
				lines := r.ignores[pos.Filename]
				if lines == nil {
					lines = make(map[int]bool)
					r.ignores[pos.Filename] = lines
				}
				lines[pos.Line] = true
				lines[pos.Line+1] = true
			}
		}
	}
	return r
}

// Reportf emits a diagnostic unless the site is in a test file or
// covered by an ignore directive.
func (r *Reporter) Reportf(pos token.Pos, format string, args ...any) {
	p := r.pass.Fset.Position(pos)
	if strings.HasSuffix(p.Filename, "_test.go") {
		return
	}
	if lines, ok := r.ignores[p.Filename]; ok && lines[p.Line] {
		return
	}
	r.pass.Reportf(pos, format, args...)
}

// MethodName returns the selector name of a method/function call
// expression ("AppendCommit" for w.wal.AppendCommit(rec)), or "" when
// the callee is not a selector.
func MethodName(call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	return sel.Sel.Name
}

// IsPkgCall reports whether call invokes the package-level function
// pkgPath.name (e.g. "os".Rename).
func IsPkgCall(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	return fn.Pkg().Path() == pkgPath && fn.Name() == name
}

// ReceiverTypeName returns the name of the named type (or pointee of a
// pointer to it) that a method call's receiver has, or "".
func ReceiverTypeName(info *types.Info, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	tv, ok := info.Types[sel.X]
	if !ok {
		return ""
	}
	t := tv.Type
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	return named.Obj().Name()
}

// SeamCall names a durability call on the storage write seam
// (internal/storage/fs.go): Rename or SyncDir on a type whose name ends in
// FS — storage.FS and its implementations — or a package-level function
// named Install or WriteFileAtomic, which publish a file by fsync, rename
// and directory fsync. It returns "" for any other call. The seam's file
// fsync is a method named Sync, which the analyzers match on any type.
func SeamCall(info *types.Info, call *ast.CallExpr) string {
	var id *ast.Ident
	switch f := call.Fun.(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	default:
		return ""
	}
	fn, ok := info.Uses[id].(*types.Func)
	if !ok {
		return ""
	}
	if fn.Type().(*types.Signature).Recv() == nil {
		if fn.Name() == "Install" || fn.Name() == "WriteFileAtomic" {
			return fn.Name()
		}
		return ""
	}
	if fn.Name() != "Rename" && fn.Name() != "SyncDir" {
		return ""
	}
	if recv := ReceiverTypeName(info, call); strings.HasSuffix(recv, "FS") {
		return recv + "." + fn.Name()
	}
	return ""
}

// PublishCall names a call that publishes a commit to MVCC readers: the
// epoch advance itself (a method named AdvanceEpoch, on any type) or the log
// consumer's commit arm that performs it (a method named Publish on a type
// named State — storage.State). It returns "" for any other call.
func PublishCall(info *types.Info, call *ast.CallExpr) string {
	switch MethodName(call) {
	case "AdvanceEpoch":
		return "AdvanceEpoch"
	case "Publish":
		if ReceiverTypeName(info, call) == "State" {
			return "State.Publish"
		}
	}
	return ""
}
