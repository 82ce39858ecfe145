package replay

import (
	"strings"

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
// script with no checkpoint loop, gets FULL. injected reports whether
// propagation put a statement into f (script.PropagateResult.IsInjected).
func analyze(f *script.File, injected func(script.Stmt) bool) scriptFacts {
	a := &analysis{mutable: names{}}
	a.scan(f.Stmts, nil, nil)
	var fx scriptFacts

	funcReads, funcWrites := names{}, names{}
	for _, d := range a.funcs {
		if script.Inspect(d.Body, injected) || script.Inspect(d.Body, isFlorLoop) {
			fx = scriptFacts{innerNeeded: true, carried: true}
		}
		params := names{}
		for _, p := range d.Params {
			params[p] = true
		}
		u := a.use(d.Body, params, nil, nil)
		funcReads.add(u.early)
		funcWrites.add(u.writes)
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
			in.writes.add(funcWrites)
			outside := a.use(f.Stmts, nil, nil, l).reads
			outside.add(funcReads)
			outside.add(in.early)
			if script.Inspect(l.Body, injected) || in.writes.meets(outside) {
				fx.innerNeeded = true
			}
		}
		body := a.use(c.loop.Body, names{c.loop.Var: true}, c.objs, nil)
		body.writes.add(funcWrites)
		body.early.add(funcReads)
		if body.writes.meets(body.early) {
			fx.carried = true
		}
	}
	return fx
}

type names map[string]bool

func (n names) add(o names) {
	for k := range o {
		n[k] = true
	}
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
	mutable   names // bound at least once to a value a call might change
	funcs     []*script.FuncStmt
	ckptLoops []*checkpointLoop
}

// scan finds the checkpoint loops, their inner loops and the funcs, and
// marks every name some binding may leave mutable. objs is non-nil inside a
// flor.checkpointing body, outside its checkpoint loop; c is the checkpoint
// loop whose body, outside its inner loops, ss belongs to.
func (a *analysis) scan(ss []script.Stmt, objs names, c *checkpointLoop) {
	for _, s := range ss {
		switch x := s.(type) {
		case *script.AssignStmt:
			if n, ok := x.Target.(*script.NameExpr); ok && !immutable(x.Value) {
				a.mutable[n.Name] = true
			}
		case *script.ForStmt:
			if !overRange(x) {
				a.mutable[x.Var] = true
			}
			switch {
			case isFlorLoop(x) && c != nil:
				c.inner = append(c.inner, x)
				a.scan(x.Body, nil, nil)
				continue
			case isFlorLoop(x) && objs != nil:
				cl := &checkpointLoop{loop: x, objs: objs}
				a.ckptLoops = append(a.ckptLoops, cl)
				a.scan(x.Body, nil, cl)
				continue
			case c != nil && script.Inspect(x.Body, isFlorLoop):
				c.repeated = true
			}
		case *script.WhileStmt:
			if c != nil && script.Inspect(x.Body, isFlorLoop) {
				c.repeated = true
			}
		case *script.WithStmt:
			if x.Call.Fn == "flor.checkpointing" {
				scope := names{}
				for _, v := range x.Call.KwVals {
					if n, ok := v.(*script.NameExpr); ok {
						scope[n.Name] = true
					}
				}
				a.scan(x.Body, scope, nil)
				continue
			}
		case *script.FuncStmt:
			a.mutable[x.Name] = true
			for _, p := range x.Params {
				a.mutable[p] = true
			}
			a.funcs = append(a.funcs, x)
			a.scan(x.Body, nil, nil)
			continue
		}
		for _, b := range script.Body(s) {
			a.scan(b, objs, c)
		}
	}
}

// usage is what a statement list reads and may write.
type usage struct {
	reads, writes names
	// early holds the names read before every path has assigned them: an
	// assignment in a nested block assigns nothing after it, since the
	// block may not run.
	early   names
	mutable names           // names a call might change in place
	objs    names           // changing one of these in place is no write
	skip    *script.ForStmt // a loop whose body is not read
}

// use walks ss, func bodies aside, with the names in defined assigned on
// entry.
func (a *analysis) use(ss []script.Stmt, defined, objs names, skip *script.ForStmt) *usage {
	u := &usage{reads: names{}, writes: names{}, early: names{}, mutable: a.mutable, objs: objs, skip: skip}
	u.walk(ss, defined)
	return u
}

func (u *usage) walk(ss []script.Stmt, defined names) {
	assigned := names{}
	assigned.add(defined)
	mutate := func(e script.Expr) {
		for ix, ok := e.(*script.IndexExpr); ok; ix, ok = e.(*script.IndexExpr) {
			e = ix.X
		}
		if n, ok := e.(*script.NameExpr); ok && u.mutable[n.Name] && !u.objs[n.Name] {
			u.writes[n.Name] = true
		}
	}
	expr := func(e script.Expr) {
		script.WalkExpr(e, func(x script.Expr) {
			switch x := x.(type) {
			case *script.NameExpr:
				u.reads[x.Name] = true
				if !assigned[x.Name] {
					u.early[x.Name] = true
				}
			case *script.CallExpr:
				if strings.HasPrefix(x.Fn, "flor.") {
					return
				}
				for _, arg := range x.Args {
					mutate(arg)
				}
				for _, arg := range x.KwVals {
					mutate(arg)
				}
			}
		})
	}
	for _, s := range ss {
		switch x := s.(type) {
		case *script.AssignStmt:
			expr(x.Value)
			if n, ok := x.Target.(*script.NameExpr); ok {
				u.writes[n.Name] = true
				assigned[n.Name] = true
			} else {
				expr(x.Target)
				mutate(x.Target)
			}
			continue
		case *script.ForStmt:
			expr(x.Iterable)
			u.writes[x.Var] = true
			if x != u.skip {
				inner := names{x.Var: true}
				inner.add(assigned)
				u.walk(x.Body, inner)
			}
			continue
		case *script.FuncStmt:
			u.writes[x.Name] = true
			assigned[x.Name] = true
			continue
		case *script.ExprStmt:
			expr(x.X)
		case *script.IfStmt:
			expr(x.Cond)
		case *script.WhileStmt:
			expr(x.Cond)
		case *script.WithStmt:
			expr(x.Call)
		case *script.ReturnStmt:
			if x.X != nil {
				expr(x.X)
			}
		}
		for _, b := range script.Body(s) {
			u.walk(b, assigned)
		}
	}
}

// immutable reports whether e always yields a value no call can change in
// place.
func immutable(e script.Expr) bool {
	switch x := e.(type) {
	case *script.NumberLit, *script.StringLit, *script.BoolLit, *script.NilLit, *script.UnaryExpr:
		return true
	case *script.CallExpr:
		return x.Fn == "flor.arg" && len(x.KwVals) == 0 && (len(x.Args) < 2 || immutable(x.Args[1]))
	}
	return false
}

// overRange reports whether a loop's variable takes the values of a range.
func overRange(s *script.ForStmt) bool {
	call, ok := s.Iterable.(*script.CallExpr)
	if ok && call.Fn == "flor.loop" && len(call.Args) == 2 {
		call, ok = call.Args[1].(*script.CallExpr)
	}
	return ok && call.Fn == "range"
}

func isFlorLoop(s script.Stmt) bool {
	f, ok := s.(*script.ForStmt)
	if !ok {
		return false
	}
	call, ok := f.Iterable.(*script.CallExpr)
	return ok && call.Fn == "flor.loop"
}
