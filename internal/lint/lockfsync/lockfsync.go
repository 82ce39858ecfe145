// Package lockfsync defines an Analyzer that forbids durability calls —
// fsync, commit append, seal, file rename, and the storage write seam's
// rename, directory sync and install (lintutil.SeamCall) — while a
// mutex locked in the same function may still be held. This is the
// group-commit ordering rule of DESIGN §8: Session.Commit deliberately
// releases s.mu before WAL.AppendCommit so that loggers on other
// goroutines are never stalled behind a disk flush and concurrent
// committers can coalesce into one fsync. Holding an engine mutex
// across an fsync turns a microsecond critical section into a
// millisecond one and serializes the whole serving path on the disk.
//
// The analysis is a forward may-hold dataflow over the function's CFG:
// m.Lock()/m.RLock() adds the mutex (identified by its expression text,
// e.g. "s.mu") to the held set, m.Unlock()/m.RUnlock() removes it, and
// `defer m.Unlock()` removes nothing — the deferred unlock runs at
// return, so the body holds the lock throughout. A durability call is
// reported when any path reaches it with a non-empty held set. Only
// locks acquired in the same function body are tracked; functions that
// are documented to run "locked" (the *Locked suffix idiom) are the
// caller's responsibility at the call site.
//
// The WAL's sync lock is the documented exception: syncMu serializes
// durability rounds and only they take it, so WAL.fsyncLocked fsyncs with
// it held (its callers take it, per the *Locked idiom). The append lock mu,
// which every logger takes, is held across an fsync only just before the
// file is closed, sealed or truncated; the one annotated site in
// internal/storage is recovery-time Truncate, which carries a
// //florvet:ignore comment rather than excluding the package.
package lockfsync

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

const doc = "report fsync/rename/commit durability calls made while a mutex locked in the same function is held"

// Analyzer is the lockfsync analyzer.
var Analyzer = &analysis.Analyzer{
	Name:     "lockfsync",
	Doc:      doc,
	Requires: []*analysis.Analyzer{inspect.Analyzer, ctrlflow.Analyzer},
	Run:      run,
}

func init() { lintutil.AddExcludeFlag(Analyzer) }

func run(pass *analysis.Pass) (any, error) {
	if lintutil.Excluded(pass) {
		return nil, nil
	}
	rep := lintutil.NewReporter(pass)
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	cfgs := pass.ResultOf[ctrlflow.Analyzer].(*ctrlflow.CFGs)

	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil), (*ast.FuncLit)(nil)}, func(n ast.Node) {
		var g *cfg.CFG
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body == nil {
				return
			}
			g = cfgs.FuncDecl(fn)
		case *ast.FuncLit:
			g = cfgs.FuncLit(fn)
		}
		if g != nil {
			checkCFG(pass, rep, g)
		}
	})
	return nil, nil
}

// event is one lock-relevant occurrence inside a CFG block, in order.
type event struct {
	call *ast.CallExpr
	// For lock/unlock events, the mutex key ("s.mu"); for durability
	// events, "".
	mutex string
	kind  eventKind
}

type eventKind int

const (
	evLock eventKind = iota
	evUnlock
	evDurability
)

func checkCFG(pass *analysis.Pass, rep *lintutil.Reporter, g *cfg.CFG) {
	// Extract per-block event sequences once.
	events := make([][]event, len(g.Blocks))
	interesting := false
	for i, b := range g.Blocks {
		for _, n := range b.Nodes {
			ast.Inspect(n, func(n ast.Node) bool {
				// Nested function literals get their own CFG; don't
				// attribute their lock traffic to this function.
				if _, ok := n.(*ast.FuncLit); ok {
					return false
				}
				// Deferred calls run at return, not here: a deferred
				// Unlock releases nothing during the body (that is the
				// point of this analyzer), and a deferred durability
				// call is not reached at this program point.
				if _, ok := n.(*ast.DeferStmt); ok {
					return false
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if ev, ok := classify(pass.TypesInfo, call); ok {
					events[i] = append(events[i], ev)
					interesting = true
				}
				return true
			})
		}
	}
	if !interesting {
		return
	}

	// Forward may-hold fixpoint: in[b] = union of out[pred]; a mutex is
	// "may held" at a durability call if any path locks it first.
	in := make([]map[string]bool, len(g.Blocks))
	out := make([]map[string]bool, len(g.Blocks))
	for i := range g.Blocks {
		in[i] = map[string]bool{}
		out[i] = map[string]bool{}
	}
	changed := true
	for changed {
		changed = false
		for i, b := range g.Blocks {
			held := copySet(in[i])
			for _, ev := range events[i] {
				switch ev.kind {
				case evLock:
					held[ev.mutex] = true
				case evUnlock:
					delete(held, ev.mutex)
				}
			}
			if !sameSet(out[i], held) {
				out[i] = held
				changed = true
			}
			for _, s := range b.Succs {
				for m := range held {
					if !in[s.Index][m] {
						in[s.Index][m] = true
						changed = true
					}
				}
			}
		}
	}

	// Report durability calls reached with a non-empty held set.
	for i := range g.Blocks {
		held := copySet(in[i])
		for _, ev := range events[i] {
			switch ev.kind {
			case evLock:
				held[ev.mutex] = true
			case evUnlock:
				delete(held, ev.mutex)
			case evDurability:
				if m := anyKey(held); m != "" {
					rep.Reportf(ev.call.Pos(),
						"durability call %s while %s may still be held; release the lock before the fsync boundary (group-commit ordering, DESIGN §8)",
						callName(ev.call), m)
				}
			}
		}
	}
}

// classify maps a call to a lock, unlock, or durability event.
func classify(info *types.Info, call *ast.CallExpr) (event, bool) {
	if name := durabilityName(info, call); name != "" {
		return event{call: call, kind: evDurability}, true
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return event{}, false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return event{}, false
	}
	key := types.ExprString(sel.X)
	switch fn.Name() {
	case "Lock", "RLock":
		return event{call: call, mutex: key, kind: evLock}, true
	case "Unlock", "RUnlock":
		return event{call: call, mutex: key, kind: evUnlock}, true
	}
	return event{}, false
}

// durabilityName mirrors walerrcheck's durability-call shapes.
func durabilityName(info *types.Info, call *ast.CallExpr) string {
	if lintutil.IsPkgCall(info, call, "os", "Rename") {
		return "os.Rename"
	}
	switch name := lintutil.MethodName(call); name {
	case "Sync":
		return "Sync"
	case "AppendCommit", "Seal":
		return name
	}
	return lintutil.SeamCall(info, call)
}

func callName(call *ast.CallExpr) string {
	switch f := call.Fun.(type) {
	case *ast.SelectorExpr:
		return types.ExprString(f)
	case *ast.Ident:
		return f.Name
	}
	return "call"
}

func copySet(s map[string]bool) map[string]bool {
	c := make(map[string]bool, len(s))
	for k := range s {
		c[k] = true
	}
	return c
}

func sameSet(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func anyKey(s map[string]bool) string {
	best := ""
	for k := range s {
		if best == "" || k < best {
			best = k
		}
	}
	return best
}
