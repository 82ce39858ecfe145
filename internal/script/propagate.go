package script

import (
	"maps"
	"strconv"

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
//     statements, a flor.loop header by its loop's literal name; full
//     renderings for simple statements).
//  2. Recurse into the bodies of matched compound statements.
//  3. Any *new* log-bearing statement is injected into the old block at the
//     aligned position — anchored after the nearest preceding matched
//     statement.
//
// Steps 1 and 3 read the facts of Analyze: a loop's name is its Facts.Loop,
// and a statement is log-bearing by its Facts.Op and Facts.Effects
// (isLogBearing). Statements
// that are new but not log-bearing are NOT injected: hindsight logging adds
// observation, never computation (the paper's replay extracts "arbitrary
// expression values derivable from [recorded] state"; the assignments we
// carry along are the derivations feeding new logs). Which names a replay
// backfills is read from the same facts: the Facts.Logs of the injected
// statements.

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
	an := Analyze(oldF)
	maps.Copy(an, Analyze(newF))
	merged := propagateBlock(oldF.Stmts, newF.Stmts, an, &res)
	return &File{Name: oldF.Name, Stmts: merged}, res
}

// propagateBlock returns oldStmts itself when nothing was injected into the
// block or below it.
func propagateBlock(oldStmts, newStmts []Stmt, an Analysis, res *PropagateResult) []Stmt {
	// align[j] = index in old of the statement matching new[j], or -1.
	align := diffkit.Align(an.signatures(oldStmts), an.signatures(newStmts))

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
			if isLogBearing(s, an) {
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
			oldBodies[bi] = propagateBlock(oldBodies[bi], newBodies[bi], an, res)
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

// signatures returns the signatures the statements of ss align by. A
// flor.loop header aligns by the loop's identity, its variable and literal
// name, so a loop whose bound changed between the versions is still the same
// loop; a loop whose name is not a string literal keeps its rendered header.
func (an Analysis) signatures(ss []Stmt) []string {
	sigs := make([]string, len(ss))
	for i, s := range ss {
		sigs[i] = s.Signature()
		if f := an[s]; f.NamedLoop {
			sigs[i] = "for " + s.(*ForStmt).Var + " in flor.loop(" + strconv.Quote(f.Loop) + ")"
		}
	}
	return sigs
}

// isLogBearing reports whether a new statement is carried into history: a
// flor.log or flor.commit expression statement, an assignment whose value
// calls no flor function but flor.log (conservatively, a derivation that may
// feed a new log), or a compound statement that holds one of these.
func isLogBearing(s Stmt, an Analysis) bool {
	return Inspect([]Stmt{s}, func(c Stmt) bool {
		f := an[c]
		switch c.(type) {
		case *ExprStmt:
			return f.Op == FlorLog || f.Op == FlorCommit
		case *AssignStmt:
			return f.Effects&^FlorLog == 0
		}
		return false
	})
}
