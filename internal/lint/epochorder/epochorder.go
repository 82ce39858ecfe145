// Package epochorder defines an Analyzer that enforces the MVCC
// publication order of DESIGN §8: within one function, the call that
// publishes a commit must come strictly after the commit's durability
// point (WAL.AppendCommit). A publish is the epoch advance itself
// (AdvanceEpoch) or the storage commit arm that performs it
// (State.Publish) — lintutil.PublishCall. Publishing first would let
// committed-epoch snapshot readers observe rows whose commit record is not
// yet on disk — a crash in the window makes a state that was served to
// clients disappear on recovery.
//
// The rule is intraprocedural and fires only on functions that contain
// BOTH calls: from any publish call site, no AppendCommit call may be
// reachable in the control-flow graph (same block later, or any reachable
// successor). Functions with only a publish — recovery replaying commit
// records, tests advancing epochs directly — have no commit to order
// against and are not constrained.
package epochorder

import (
	"go/ast"

	"flordb/internal/lint/lintutil"
	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/ctrlflow"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"golang.org/x/tools/go/cfg"
)

const doc = "report commit publications that can precede the commit's WAL fsync in the same function"

// Analyzer is the epochorder analyzer.
var Analyzer = &analysis.Analyzer{
	Name:     "epochorder",
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

	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fn := n.(*ast.FuncDecl)
		if fn.Body == nil {
			return
		}
		if g := cfgs.FuncDecl(fn); g != nil {
			checkCFG(rep, pass, g)
		}
	})
	return nil, nil
}

func checkCFG(rep *lintutil.Reporter, pass *analysis.Pass, g *cfg.CFG) {
	// Collect, per block, the ordered positions of the two call kinds.
	type site struct {
		call     *ast.CallExpr
		isCommit bool   // AppendCommit vs a publish
		publish  string // the publish call's name
	}
	sites := make([][]site, len(g.Blocks))
	var havePublish, haveCommit bool
	for i, b := range g.Blocks {
		for _, n := range b.Nodes {
			ast.Inspect(n, func(n ast.Node) bool {
				if _, ok := n.(*ast.FuncLit); ok {
					return false
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if name := lintutil.PublishCall(pass.TypesInfo, call); name != "" {
					sites[i] = append(sites[i], site{call: call, publish: name})
					havePublish = true
				} else if lintutil.MethodName(call) == "AppendCommit" {
					sites[i] = append(sites[i], site{call: call, isCommit: true})
					haveCommit = true
				}
				return true
			})
		}
	}
	if !havePublish || !haveCommit {
		return
	}

	// hasCommit[i]: block i contains an AppendCommit anywhere.
	// commitAhead[i]: an AppendCommit is reachable from the start of
	// block i along FORWARD edges only (succ.Index > block.Index). Loop
	// back edges are deliberately excluded: in `for { AppendCommit;
	// Publish }` the commit reached through the back edge belongs to the
	// NEXT transaction, and ordering across transactions is not
	// constrained — only the publish of THIS commit must follow its
	// fsync.
	hasCommit := make([]bool, len(g.Blocks))
	for i := range g.Blocks {
		for _, s := range sites[i] {
			if s.isCommit {
				hasCommit[i] = true
			}
		}
	}
	commitAhead := make([]bool, len(g.Blocks))
	for i := len(g.Blocks) - 1; i >= 0; i-- {
		for _, succ := range g.Blocks[i].Succs {
			j := int(succ.Index)
			if j > i && (hasCommit[j] || commitAhead[j]) {
				commitAhead[i] = true
			}
		}
	}

	for i, b := range g.Blocks {
		for j, s := range sites[i] {
			if s.isCommit {
				continue
			}
			// A commit later in the same block?
			bad := false
			for _, later := range sites[i][j+1:] {
				if later.isCommit {
					bad = true
				}
			}
			// Or in any forward-reachable block?
			if !bad {
				for _, succ := range b.Succs {
					k := int(succ.Index)
					if k > i && (hasCommit[k] || commitAhead[k]) {
						bad = true
						break
					}
				}
			}
			if bad {
				rep.Reportf(s.call.Pos(),
					"%s may run before this function's WAL.AppendCommit; readers could observe a commit the disk does not have (DESIGN §8: fsync, then publish)", s.publish)
			}
		}
	}
}
