package script

import "strings"

// Effect is a set of flor operations.
type Effect uint8

// The flor operations, one bit each, named after the call that performs
// them.
const (
	FlorLog Effect = 1 << iota
	FlorCommit
	FlorArg
	FlorLoop
	FlorCheckpointing
	FlorIteration
	// FlorOther is any other flor.-prefixed call.
	FlorOther
)

var florEffects = map[string]Effect{
	"flor.log": FlorLog, "flor.commit": FlorCommit, "flor.arg": FlorArg, "flor.loop": FlorLoop,
	"flor.checkpointing": FlorCheckpointing, "flor.iteration": FlorIteration,
}

// Facts is the static reading of one statement. A compound statement's
// facts are those of its header; the statements of its bodies have their
// own.
type Facts struct {
	// Reads holds the names its expressions read.
	Reads []string
	// Binds holds the names it binds: an assignment's target name, a for
	// loop's variable (in its body), a func's name.
	Binds []string
	// Mutates holds the names it may change in place: a bare name, or the
	// base of an index expression, passed to a call whose name has no
	// "flor." prefix, and the base of an index assignment's target.
	Mutates []string
	// Logs holds the literal name of every flor.log call in its
	// expressions; a log whose name is not a string literal adds none.
	Logs []string
	// Effects holds every flor call in its expressions.
	Effects Effect
	// Op is the flor operation the statement performs: FlorLoop for a for
	// header over flor.loop, FlorCheckpointing or FlorIteration for a with
	// header, and FlorLog, FlorCommit or FlorArg for an expression
	// statement or an assignment whose expression is that call.
	Op Effect
	// Loop is the name of a flor.loop header when NamedLoop: when the name
	// is a string literal.
	Loop      string
	NamedLoop bool
	// Scope holds the names a flor.checkpointing header restores: its
	// keyword arguments that are bare names.
	Scope []string
	// Immutable: what it binds no call can change in place, because it is a
	// literal, a flor.arg value with such a default, or a range index.
	Immutable bool
}

// Analysis holds the facts of every statement of a file, and of every
// statement nested in one.
type Analysis map[Stmt]Facts

// Analyze reads every statement of f once. Every static reader of a Flow
// script takes its facts from here: propagation's carry rule and loop
// alignment, the new-name set of a replay, and its plan.
func Analyze(f *File) Analysis {
	an := Analysis{}
	Inspect(f.Stmts, func(s Stmt) bool {
		an[s] = analyzeStmt(s)
		return false
	})
	return an
}

func analyzeStmt(s Stmt) Facts {
	var f Facts
	switch x := s.(type) {
	case *AssignStmt:
		f.expr(x.Value)
		f.Op = florOp(x.Value) & (FlorLog | FlorCommit | FlorArg)
		n, ok := x.Target.(*NameExpr)
		if !ok {
			f.expr(x.Target)
			f.mutate(x.Target)
			break
		}
		f.Binds = []string{n.Name}
		// A literal is immutable, and so is a flor.arg value whose default,
		// if it has one, is.
		v := x.Value
		for c, ok := v.(*CallExpr); ok && c.Fn == "flor.arg" &&
			len(c.KwVals) == 0 && len(c.Args) >= 2; c, ok = v.(*CallExpr) {
			v = c.Args[1]
		}
		switch v := v.(type) {
		case *NumberLit, *StringLit, *BoolLit, *NilLit, *UnaryExpr:
			f.Immutable = true
		case *CallExpr:
			f.Immutable = v.Fn == "flor.arg" && len(v.KwVals) == 0
		}
	case *ExprStmt:
		f.expr(x.X)
		f.Op = florOp(x.X) & (FlorLog | FlorCommit | FlorArg)
	case *ForStmt:
		f.expr(x.Iterable)
		f.Binds = []string{x.Var}
		// A range index is immutable, under flor.loop(name, range(...)) too.
		over := x.Iterable
		if f.Op = florOp(over) & FlorLoop; f.Op != 0 {
			loop := over.(*CallExpr)
			f.Loop, f.NamedLoop = literalName(loop)
			if len(loop.Args) == 2 {
				over = loop.Args[1]
			}
		}
		r, ok := over.(*CallExpr)
		f.Immutable = ok && r.Fn == "range"
	case *WithStmt:
		f.expr(x.Call)
		f.Op = florOp(x.Call) & (FlorCheckpointing | FlorIteration)
		if f.Op == FlorCheckpointing {
			for _, v := range x.Call.KwVals {
				if n, ok := v.(*NameExpr); ok {
					f.Scope = append(f.Scope, n.Name)
				}
			}
		}
	case *IfStmt:
		f.expr(x.Cond)
	case *WhileStmt:
		f.expr(x.Cond)
	case *ReturnStmt:
		f.expr(x.X)
	case *FuncStmt:
		f.Binds = []string{x.Name}
	}
	return f
}

// expr records what e and every expression nested in it read, change and
// call.
func (f *Facts) expr(es ...Expr) {
	for _, e := range es {
		switch x := e.(type) {
		case *NameExpr:
			f.Reads = append(f.Reads, x.Name)
		case *ListLit:
			f.expr(x.Items...)
		case *DictLit:
			f.expr(x.Keys...)
			f.expr(x.Vals...)
		case *IndexExpr:
			f.expr(x.X, x.Index)
		case *BinaryExpr:
			f.expr(x.L, x.R)
		case *UnaryExpr:
			f.expr(x.X)
		case *CallExpr:
			op := florOp(x)
			f.Effects |= op
			if op == 0 {
				f.mutate(x.Args...)
				f.mutate(x.KwVals...)
			}
			if name, ok := literalName(x); ok && op == FlorLog {
				f.Logs = append(f.Logs, name)
			}
			f.expr(x.Args...)
			f.expr(x.KwVals...)
		}
	}
}

// mutate records the names es change when something changes them in place:
// each bare name, and each index expression's base.
func (f *Facts) mutate(es ...Expr) {
	for _, e := range es {
		for ix, ok := e.(*IndexExpr); ok; ix, ok = e.(*IndexExpr) {
			e = ix.X
		}
		if n, ok := e.(*NameExpr); ok {
			f.Mutates = append(f.Mutates, n.Name)
		}
	}
}

// literalName returns a flor call's first argument, its name, when that is
// a string literal.
func literalName(c *CallExpr) (string, bool) {
	if len(c.Args) > 0 {
		if lit, ok := c.Args[0].(*StringLit); ok {
			return lit.S, true
		}
	}
	return "", false
}

// florOp returns the flor operation e calls at its top, or 0 when e is not
// a flor call.
func florOp(e Expr) Effect {
	c, ok := e.(*CallExpr)
	if !ok || !strings.HasPrefix(c.Fn, "flor.") {
		return 0
	}
	if op, ok := florEffects[c.Fn]; ok {
		return op
	}
	return FlorOther
}
