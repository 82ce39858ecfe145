package replay

import (
	"maps"

	"flordb/internal/script"
)

// scriptFacts is the static reading of a merged script that fixes a
// version's replay plan before the replay starts (DESIGN §3).
type scriptFacts struct {
	// innerNeeded: the checkpoint loop's inner loops run (FULL) instead of
	// being skipped behind a checkpoint restore (COARSE).
	innerNeeded bool
	// carried: state crosses checkpoint-loop iterations outside the
	// checkpointed objects, so no target may start at a checkpoint.
	carried bool
}

// analyze reads a merged script once, before its replay. The checkpoint
// loop is the first flor.loop entered inside flor.checkpointing; its inner
// flor.loops are what COARSE skips, restoring the iteration's checkpoint
// where each ends. W(L), the names an inner loop L may write, holds its
// assignment targets, index-assignment bases, loop variables and bare names
// passed as call arguments (append mutates its argument in place), less the
// checkpointed objects, which the restore rebuilds, and names only ever
// bound to literals, flor.arg values or range indexes, which no call can
// change in place.
//
//   - COARSE only if no injected statement lies inside an inner loop, and
//     no name in W(L) is read outside L or read in L before L assigns it:
//     a skipped L would leave that name stale.
//   - A target may start at a checkpoint only if no non-checkpointed name
//     the checkpoint-loop body writes is read there before the same
//     iteration assigns it.
//
// Each skipped inner loop restores the end-of-iteration checkpoint, so
// COARSE also needs at most one inner loop, entered at most once per
// iteration. Where unsure it answers FULL and from the start. func bodies
// are read as globals: their reads count everywhere and their writes in
// every loop. A func that holds a flor.loop or an injected statement, or a
// script with no checkpoint loop, gets FULL. an is f's script.Analyze: the
// loops and scopes are the statements' Op and Scope, the reads their Reads,
// W(L) their Binds and Mutates, and a binding's mutability its Immutable.
// injected reports whether propagation put a statement into f
// (script.PropagateResult.IsInjected).
func analyze(f *script.File, an script.Analysis, injected func(script.Stmt) bool) scriptFacts {
	a := &analysis{an: an, mutable: names{}}
	a.scan(f.Stmts, nil, nil)
	var fx scriptFacts

	funcReads, funcWrites := names{}, names{}
	for _, d := range a.funcs {
		if script.Inspect(d.Body, injected) || a.holdsLoop(d.Body) {
			fx = scriptFacts{innerNeeded: true, carried: true}
		}
		u := a.use(d.Body, names{}.add(d.Params...), nil, nil)
		maps.Copy(funcReads, u.early)
		maps.Copy(funcWrites, u.writes)
	}
	if len(a.ckptLoops) == 0 {
		fx.innerNeeded = true
	}
	for _, c := range a.ckptLoops {
		if len(c.inner) > 1 || c.repeated {
			fx.innerNeeded = true
		}
		for _, l := range c.inner {
			in := a.use(l.Body, names{l.Var: true}, c.objs, nil)
			in.writes[l.Var] = true
			maps.Copy(in.writes, funcWrites)
			outside := a.use(f.Stmts, nil, nil, l).reads
			maps.Copy(outside, funcReads)
			maps.Copy(outside, in.early)
			if script.Inspect(l.Body, injected) || in.writes.meets(outside) {
				fx.innerNeeded = true
			}
		}
		body := a.use(c.loop.Body, names{c.loop.Var: true}, c.objs, nil)
		maps.Copy(body.writes, funcWrites)
		maps.Copy(body.early, funcReads)
		if body.writes.meets(body.early) {
			fx.carried = true
		}
	}
	return fx
}

type names map[string]bool

func (n names) add(ss ...string) names {
	for _, s := range ss {
		n[s] = true
	}
	return n
}

func (n names) meets(o names) bool {
	for k := range n {
		if o[k] {
			return true
		}
	}
	return false
}

// checkpointLoop is a flor.loop that can be a checkpoint loop: one not
// nested in another flor.loop inside a flor.checkpointing body.
type checkpointLoop struct {
	loop  *script.ForStmt
	objs  names // the names its flor.checkpointing scope restores
	inner []*script.ForStmt
	// repeated: an inner loop sits in a plain loop, so one iteration may
	// enter it more than once.
	repeated bool
}

type analysis struct {
	an        script.Analysis
	mutable   names // bound at least once to a value a call might change
	funcs     []*script.FuncStmt
	ckptLoops []*checkpointLoop
}

// holdsLoop reports whether a flor.loop header lies in ss.
func (a *analysis) holdsLoop(ss []script.Stmt) bool {
	return script.Inspect(ss, func(s script.Stmt) bool { return a.an[s].Op == script.FlorLoop })
}

// scan finds the checkpoint loops, their inner loops and the funcs, and
// marks every name some binding may leave mutable. objs is non-nil inside a
// flor.checkpointing body, outside its checkpoint loop; c is the checkpoint
// loop whose body, outside its inner loops, ss belongs to.
func (a *analysis) scan(ss []script.Stmt, objs names, c *checkpointLoop) {
	for _, s := range ss {
		f := a.an[s]
		if !f.Immutable {
			a.mutable.add(f.Binds...)
		}
		loop, isFor := s.(*script.ForStmt)
		_, isWhile := s.(*script.WhileStmt)
		switch {
		case f.Op == script.FlorLoop && c != nil:
			c.inner = append(c.inner, loop)
			a.scan(loop.Body, nil, nil)
			continue
		case f.Op == script.FlorLoop && objs != nil:
			cl := &checkpointLoop{loop: loop, objs: objs}
			a.ckptLoops = append(a.ckptLoops, cl)
			a.scan(loop.Body, nil, cl)
			continue
		case f.Op == script.FlorCheckpointing:
			a.scan(script.Body(s)[0], names{}.add(f.Scope...), nil)
			continue
		case (isFor || isWhile) && c != nil && a.holdsLoop(script.Body(s)[0]):
			c.repeated = true
		}
		if d, ok := s.(*script.FuncStmt); ok {
			a.mutable.add(d.Params...)
			a.funcs = append(a.funcs, d)
			a.scan(d.Body, nil, nil)
			continue
		}
		for _, b := range script.Body(s) {
			a.scan(b, objs, c)
		}
	}
}

// usage is what a statement list reads and may write.
type usage struct {
	*analysis
	reads, writes names
	// early holds the names read before every path has assigned them: an
	// assignment in a nested block assigns nothing after it, since the
	// block may not run.
	early names
	objs  names           // changing one of these in place is no write
	skip  *script.ForStmt // a loop whose body is not read
}

// use walks ss, func bodies aside, with the names in defined assigned on
// entry.
func (a *analysis) use(ss []script.Stmt, defined, objs names, skip *script.ForStmt) *usage {
	u := &usage{analysis: a, reads: names{}, writes: names{}, early: names{}, objs: objs, skip: skip}
	u.walk(ss, defined)
	return u
}

func (u *usage) walk(ss []script.Stmt, defined names) {
	assigned := names{}
	maps.Copy(assigned, defined)
	for _, s := range ss {
		f := u.an[s]
		for _, n := range f.Reads {
			u.reads[n] = true
			if !assigned[n] {
				u.early[n] = true
			}
		}
		for _, n := range f.Mutates {
			if u.mutable[n] && !u.objs[n] {
				u.writes[n] = true
			}
		}
		u.writes.add(f.Binds...)
		switch x := s.(type) {
		case *script.ForStmt:
			// A loop binds its variable in its body only.
			if x != u.skip {
				u.walk(x.Body, maps.Clone(assigned).add(f.Binds...))
			}
		case *script.FuncStmt:
			assigned.add(f.Binds...)
		default:
			assigned.add(f.Binds...)
			for _, b := range script.Body(s) {
				u.walk(b, assigned)
			}
		}
	}
}
