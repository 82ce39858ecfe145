package script

import (
	"errors"
	"fmt"
	"io"
)

// FlorHooks is the instrumentation interface the interpreter calls at each
// flor.* API point. The recording session and the replay engine provide
// different implementations; NopHooks runs scripts uninstrumented (the
// "logging off" baseline in the paper's overhead comparison).
type FlorHooks interface {
	// Log handles flor.log(name, value); it returns the value (the call is
	// an identity function with a side effect, per §2.1).
	Log(name string, v Value) (Value, error)
	// Arg handles flor.arg(name, default): record the resolved value during
	// recording, return the historical value during replay.
	Arg(name string, def Value) (Value, error)
	// LoopBegin handles entry into `for x in flor.loop(name, vals)`. The
	// returned session controls per-iteration execution (run vs skip).
	LoopBegin(name string, vals []Value) (LoopSession, error)
	// IterationBegin/IterationEnd bracket `with flor.iteration(name, _, value)`,
	// the paper's mechanism for logging into a keyed loop context from web
	// handlers (Figure 6).
	IterationBegin(name string, val Value) error
	IterationEnd() error
	// CheckpointingBegin/End bracket `with flor.checkpointing(k=obj, ...)`.
	CheckpointingBegin(objs map[string]Value) error
	CheckpointingEnd() error
	// Commit handles flor.commit().
	Commit() error
}

// LoopSession controls one flor.loop execution.
type LoopSession interface {
	// Decide is called before each iteration. Returning run=false skips the
	// body (the hook is responsible for restoring checkpointed state so
	// execution can resume after the skipped prefix).
	Decide(i int, v Value) (run bool, err error)
	// PostIter is called after each executed (not skipped) iteration — the
	// adaptive checkpointing boundary.
	PostIter(i int, v Value) error
	// End is called when the loop exits (normally or via break).
	End() error
}

// NopHooks ignores all instrumentation.
type NopHooks struct{}

// Log implements FlorHooks.
func (NopHooks) Log(_ string, v Value) (Value, error) { return v, nil }

// Arg implements FlorHooks.
func (NopHooks) Arg(_ string, def Value) (Value, error) { return def, nil }

// LoopBegin implements FlorHooks.
func (NopHooks) LoopBegin(_ string, _ []Value) (LoopSession, error) { return nopSession{}, nil }

// IterationBegin implements FlorHooks.
func (NopHooks) IterationBegin(string, Value) error { return nil }

// IterationEnd implements FlorHooks.
func (NopHooks) IterationEnd() error { return nil }

// CheckpointingBegin implements FlorHooks.
func (NopHooks) CheckpointingBegin(map[string]Value) error { return nil }

// CheckpointingEnd implements FlorHooks.
func (NopHooks) CheckpointingEnd() error { return nil }

// Commit implements FlorHooks.
func (NopHooks) Commit() error { return nil }

type nopSession struct{}

func (nopSession) Decide(int, Value) (bool, error) { return true, nil }
func (nopSession) PostIter(int, Value) error       { return nil }
func (nopSession) End() error                      { return nil }

// HostFunc is a Go function callable from Flow.
type HostFunc func(args []Value, kwargs map[string]Value) (Value, error)

// Interp executes Flow files.
type Interp struct {
	Globals *Env
	Hooks   FlorHooks
	Stdout  io.Writer
	hosts   map[string]HostFunc
	// MaxSteps bounds statement executions to catch runaway scripts.
	MaxSteps int64
	steps    int64
}

// NewInterp creates an interpreter with the standard builtins installed.
func NewInterp(hooks FlorHooks, stdout io.Writer) *Interp {
	if hooks == nil {
		hooks = NopHooks{}
	}
	if stdout == nil {
		stdout = io.Discard
	}
	in := &Interp{
		Globals:  NewEnv(nil),
		Hooks:    hooks,
		Stdout:   stdout,
		hosts:    make(map[string]HostFunc),
		MaxSteps: 200_000_000,
	}
	registerBuiltins(in)
	return in
}

// RegisterHost exposes a Go function to Flow under the given (possibly
// dotted) name.
func (in *Interp) RegisterHost(name string, fn HostFunc) { in.hosts[name] = fn }

// control-flow signals
type ctrlKind int

const (
	ctrlNone ctrlKind = iota
	ctrlBreak
	ctrlContinue
	ctrlReturn
)

type ctrl struct {
	kind ctrlKind
	val  Value
}

// RuntimeError decorates an error with a source position. Stmt is the
// innermost statement the error passed through: in a merged script it tells
// which version's source Line counts in (script.PropagateResult.IsInjected).
type RuntimeError struct {
	File string
	Line int
	Stmt Stmt
	Err  error
}

// Error implements error.
func (e *RuntimeError) Error() string {
	return fmt.Sprintf("flow: %s:%d: %v", e.File, e.Line, e.Err)
}

// Unwrap exposes the cause.
func (e *RuntimeError) Unwrap() error { return e.Err }

func (in *Interp) rerr(file string, n Node, err error) error {
	var re *RuntimeError
	if errors.As(err, &re) {
		return err
	}
	return &RuntimeError{File: file, Line: n.Line(), Err: err}
}

// Run executes a parsed file in the global scope.
func (in *Interp) Run(f *File) error {
	in.steps = 0
	c, err := in.execBlock(f, f.Stmts, in.Globals)
	if err != nil {
		return err
	}
	if c.kind == ctrlReturn {
		return nil // top-level return ends the script
	}
	if c.kind != ctrlNone {
		return fmt.Errorf("flow: %s: break/continue outside loop", f.Name)
	}
	return nil
}

func (in *Interp) execBlock(f *File, stmts []Stmt, env *Env) (ctrl, error) {
	for _, s := range stmts {
		c, err := in.execStmt(f, s, env)
		if err != nil {
			var re *RuntimeError
			if errors.As(err, &re) && re.Stmt == nil {
				re.Stmt = s
			}
			return ctrl{}, err
		}
		if c.kind != ctrlNone {
			return c, nil
		}
	}
	return ctrl{}, nil
}

func (in *Interp) execStmt(f *File, s Stmt, env *Env) (ctrl, error) {
	in.steps++
	if in.steps > in.MaxSteps {
		return ctrl{}, fmt.Errorf("flow: %s: step limit exceeded (%d)", f.Name, in.MaxSteps)
	}
	switch x := s.(type) {
	case *AssignStmt:
		v, err := in.eval(f, x.Value, env)
		if err != nil {
			return ctrl{}, err
		}
		switch tgt := x.Target.(type) {
		case *NameExpr:
			env.Set(tgt.Name, v)
		case *IndexExpr:
			container, err := in.eval(f, tgt.X, env)
			if err != nil {
				return ctrl{}, err
			}
			idx, err := in.eval(f, tgt.Index, env)
			if err != nil {
				return ctrl{}, err
			}
			if err := setIndex(container, idx, v); err != nil {
				return ctrl{}, in.rerr(f.Name, x, err)
			}
		default:
			return ctrl{}, in.rerr(f.Name, x, fmt.Errorf("bad assignment target"))
		}
		return ctrl{}, nil
	case *ExprStmt:
		if _, err := in.eval(f, x.X, env); err != nil {
			return ctrl{}, err
		}
		return ctrl{}, nil
	case *IfStmt:
		cond, err := in.eval(f, x.Cond, env)
		if err != nil {
			return ctrl{}, err
		}
		if Truthy(cond) {
			return in.execBlock(f, x.Then, env)
		}
		return in.execBlock(f, x.Else, env)
	case *WhileStmt:
		for {
			cond, err := in.eval(f, x.Cond, env)
			if err != nil {
				return ctrl{}, err
			}
			if !Truthy(cond) {
				return ctrl{}, nil
			}
			c, err := in.execBlock(f, x.Body, env)
			if err != nil {
				return ctrl{}, err
			}
			switch c.kind {
			case ctrlBreak:
				return ctrl{}, nil
			case ctrlReturn:
				return c, nil
			}
			in.steps++
			if in.steps > in.MaxSteps {
				return ctrl{}, fmt.Errorf("flow: %s: step limit exceeded", f.Name)
			}
		}
	case *ForStmt:
		return in.execFor(f, x, env)
	case *FuncStmt:
		env.Define(x.Name, &FuncValue{Def: x, Env: env})
		return ctrl{}, nil
	case *ReturnStmt:
		var v Value
		if x.X != nil {
			var err error
			v, err = in.eval(f, x.X, env)
			if err != nil {
				return ctrl{}, err
			}
		}
		return ctrl{kind: ctrlReturn, val: v}, nil
	case *BreakStmt:
		return ctrl{kind: ctrlBreak}, nil
	case *ContinueStmt:
		return ctrl{kind: ctrlContinue}, nil
	case *WithStmt:
		return in.execWith(f, x, env)
	default:
		return ctrl{}, in.rerr(f.Name, s, fmt.Errorf("unknown statement %T", s))
	}
}

// execFor handles both plain for-in loops and flor.loop-instrumented loops.
func (in *Interp) execFor(f *File, x *ForStmt, env *Env) (ctrl, error) {
	// flor.loop instrumentation?
	if call, ok := x.Iterable.(*CallExpr); ok && call.Fn == "flor.loop" {
		return in.execFlorLoop(f, x, call, env)
	}
	it, err := in.eval(f, x.Iterable, env)
	if err != nil {
		return ctrl{}, err
	}
	items, err := iterate(it)
	if err != nil {
		return ctrl{}, in.rerr(f.Name, x, err)
	}
	for _, v := range items {
		env.Define(x.Var, v)
		c, err := in.execBlock(f, x.Body, env)
		if err != nil {
			return ctrl{}, err
		}
		switch c.kind {
		case ctrlBreak:
			return ctrl{}, nil
		case ctrlReturn:
			return c, nil
		}
	}
	return ctrl{}, nil
}

func (in *Interp) execFlorLoop(f *File, x *ForStmt, call *CallExpr, env *Env) (c ctrl, err error) {
	if len(call.Args) != 2 {
		return ctrl{}, in.rerr(f.Name, x, fmt.Errorf("flor.loop(name, iterable) expects 2 arguments"))
	}
	nameV, err := in.eval(f, call.Args[0], env)
	if err != nil {
		return ctrl{}, err
	}
	name, ok := nameV.(string)
	if !ok {
		return ctrl{}, in.rerr(f.Name, x, fmt.Errorf("flor.loop name must be a string"))
	}
	iterV, err := in.eval(f, call.Args[1], env)
	if err != nil {
		return ctrl{}, err
	}
	items, err := iterate(iterV)
	if err != nil {
		return ctrl{}, in.rerr(f.Name, x, err)
	}
	session, err := in.Hooks.LoopBegin(name, items)
	if err != nil {
		return ctrl{}, in.rerr(f.Name, x, err)
	}
	// End runs on every exit and its error counts: in a COARSE replay it is
	// where the iteration's checkpoint is restored. The first error wins.
	defer func() {
		if endErr := session.End(); endErr != nil && err == nil {
			c, err = ctrl{}, in.rerr(f.Name, x, endErr)
		}
	}()
	for i, v := range items {
		run, err := session.Decide(i, v)
		if err != nil {
			return ctrl{}, in.rerr(f.Name, x, err)
		}
		if !run {
			continue
		}
		env.Define(x.Var, v)
		c, err := in.execBlock(f, x.Body, env)
		if err != nil {
			return ctrl{}, err
		}
		if err := session.PostIter(i, v); err != nil {
			return ctrl{}, in.rerr(f.Name, x, err)
		}
		switch c.kind {
		case ctrlBreak:
			return ctrl{}, nil
		case ctrlReturn:
			return c, nil
		}
	}
	return ctrl{}, nil
}

func (in *Interp) execWith(f *File, x *WithStmt, env *Env) (ctrl, error) {
	switch x.Call.Fn {
	case "flor.checkpointing":
		objs := make(map[string]Value, len(x.Call.KwNames))
		for i, name := range x.Call.KwNames {
			v, err := in.eval(f, x.Call.KwVals[i], env)
			if err != nil {
				return ctrl{}, err
			}
			objs[name] = v
		}
		if err := in.Hooks.CheckpointingBegin(objs); err != nil {
			return ctrl{}, in.rerr(f.Name, x, err)
		}
		c, err := in.execBlock(f, x.Body, env)
		if endErr := in.Hooks.CheckpointingEnd(); endErr != nil && err == nil {
			err = in.rerr(f.Name, x, endErr)
		}
		return c, err
	case "flor.iteration":
		if len(x.Call.Args) != 3 {
			return ctrl{}, in.rerr(f.Name, x, fmt.Errorf("flor.iteration(name, index, value) expects 3 arguments"))
		}
		nameV, err := in.eval(f, x.Call.Args[0], env)
		if err != nil {
			return ctrl{}, err
		}
		name, ok := nameV.(string)
		if !ok {
			return ctrl{}, in.rerr(f.Name, x, fmt.Errorf("flor.iteration name must be a string"))
		}
		val, err := in.eval(f, x.Call.Args[2], env)
		if err != nil {
			return ctrl{}, err
		}
		if err := in.Hooks.IterationBegin(name, val); err != nil {
			return ctrl{}, in.rerr(f.Name, x, err)
		}
		c, err := in.execBlock(f, x.Body, env)
		if endErr := in.Hooks.IterationEnd(); endErr != nil && err == nil {
			err = in.rerr(f.Name, x, endErr)
		}
		return c, err
	default:
		return ctrl{}, in.rerr(f.Name, x, fmt.Errorf("with requires flor.checkpointing or flor.iteration, found %s", x.Call.Fn))
	}
}

func (in *Interp) eval(f *File, e Expr, env *Env) (Value, error) {
	switch x := e.(type) {
	case *NumberLit:
		if x.IsInt {
			return x.I, nil
		}
		return x.F, nil
	case *StringLit:
		return x.S, nil
	case *BoolLit:
		return x.B, nil
	case *NilLit:
		return nil, nil
	case *NameExpr:
		if v, ok := env.Get(x.Name); ok {
			return v, nil
		}
		return nil, in.rerr(f.Name, x, fmt.Errorf("undefined name %q", x.Name))
	case *ListLit:
		items := make([]Value, len(x.Items))
		for i, it := range x.Items {
			v, err := in.eval(f, it, env)
			if err != nil {
				return nil, err
			}
			items[i] = v
		}
		return &List{Items: items}, nil
	case *DictLit:
		d := NewDict()
		for i := range x.Keys {
			k, err := in.eval(f, x.Keys[i], env)
			if err != nil {
				return nil, err
			}
			ks, ok := k.(string)
			if !ok {
				return nil, in.rerr(f.Name, x, fmt.Errorf("dict keys must be strings"))
			}
			v, err := in.eval(f, x.Vals[i], env)
			if err != nil {
				return nil, err
			}
			d.Set(ks, v)
		}
		return d, nil
	case *IndexExpr:
		container, err := in.eval(f, x.X, env)
		if err != nil {
			return nil, err
		}
		idx, err := in.eval(f, x.Index, env)
		if err != nil {
			return nil, err
		}
		v, err := getIndex(container, idx)
		if err != nil {
			return nil, in.rerr(f.Name, x, err)
		}
		return v, nil
	case *UnaryExpr:
		v, err := in.eval(f, x.X, env)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case "not":
			return !Truthy(v), nil
		case "-":
			switch n := v.(type) {
			case int64:
				return -n, nil
			case float64:
				return -n, nil
			}
			return nil, in.rerr(f.Name, x, fmt.Errorf("unary minus on %s", Repr(v)))
		}
		return nil, in.rerr(f.Name, x, fmt.Errorf("unknown unary op %q", x.Op))
	case *BinaryExpr:
		return in.evalBinary(f, x, env)
	case *CallExpr:
		return in.evalCall(f, x, env)
	default:
		return nil, fmt.Errorf("flow: unknown expression %T", e)
	}
}

func (in *Interp) evalBinary(f *File, x *BinaryExpr, env *Env) (Value, error) {
	// Short-circuit boolean operators.
	if x.Op == "and" || x.Op == "or" {
		l, err := in.eval(f, x.L, env)
		if err != nil {
			return nil, err
		}
		if x.Op == "and" && !Truthy(l) {
			return l, nil
		}
		if x.Op == "or" && Truthy(l) {
			return l, nil
		}
		return in.eval(f, x.R, env)
	}
	l, err := in.eval(f, x.L, env)
	if err != nil {
		return nil, err
	}
	r, err := in.eval(f, x.R, env)
	if err != nil {
		return nil, err
	}
	v, err := applyBinary(x.Op, l, r)
	if err != nil {
		return nil, in.rerr(f.Name, x, err)
	}
	return v, nil
}

func applyBinary(op string, l, r Value) (Value, error) {
	switch op {
	case "==":
		return ValueEqual(l, r), nil
	case "!=":
		return !ValueEqual(l, r), nil
	case "in":
		switch c := r.(type) {
		case *List:
			for _, it := range c.Items {
				if ValueEqual(l, it) {
					return true, nil
				}
			}
			return false, nil
		case *Dict:
			ks, ok := l.(string)
			if !ok {
				return false, nil
			}
			_, found := c.Get(ks)
			return found, nil
		case string:
			ls, ok := l.(string)
			if !ok {
				return nil, fmt.Errorf("'in' on string requires string operand")
			}
			return containsSubstring(c, ls), nil
		}
		return nil, fmt.Errorf("'in' requires list, dict or string")
	}
	// String operations.
	if ls, ok := l.(string); ok {
		if rs, ok := r.(string); ok {
			switch op {
			case "+":
				return ls + rs, nil
			case "<":
				return ls < rs, nil
			case "<=":
				return ls <= rs, nil
			case ">":
				return ls > rs, nil
			case ">=":
				return ls >= rs, nil
			}
			return nil, fmt.Errorf("operator %q not defined on strings", op)
		}
	}
	// List concatenation.
	if ll, ok := l.(*List); ok {
		if rl, ok := r.(*List); ok && op == "+" {
			items := make([]Value, 0, len(ll.Items)+len(rl.Items))
			items = append(items, ll.Items...)
			items = append(items, rl.Items...)
			return &List{Items: items}, nil
		}
	}
	// Numeric.
	li, lIsInt := l.(int64)
	ri, rIsInt := r.(int64)
	if lIsInt && rIsInt && op != "/" {
		switch op {
		case "+":
			return li + ri, nil
		case "-":
			return li - ri, nil
		case "*":
			return li * ri, nil
		case "%":
			if ri == 0 {
				return nil, fmt.Errorf("modulo by zero")
			}
			return li % ri, nil
		case "<":
			return li < ri, nil
		case "<=":
			return li <= ri, nil
		case ">":
			return li > ri, nil
		case ">=":
			return li >= ri, nil
		}
		return nil, fmt.Errorf("unknown operator %q", op)
	}
	lf, lok := toFloat(l)
	rf, rok := toFloat(r)
	if !lok || !rok {
		return nil, fmt.Errorf("operator %q on %s and %s", op, Repr(l), Repr(r))
	}
	switch op {
	case "+":
		return lf + rf, nil
	case "-":
		return lf - rf, nil
	case "*":
		return lf * rf, nil
	case "/":
		if rf == 0 {
			return nil, fmt.Errorf("division by zero")
		}
		return lf / rf, nil
	case "%":
		return nil, fmt.Errorf("modulo requires integers")
	case "<":
		return lf < rf, nil
	case "<=":
		return lf <= rf, nil
	case ">":
		return lf > rf, nil
	case ">=":
		return lf >= rf, nil
	}
	return nil, fmt.Errorf("unknown operator %q", op)
}

func (in *Interp) evalCall(f *File, x *CallExpr, env *Env) (Value, error) {
	// flor.* special forms.
	switch x.Fn {
	case "flor.log":
		if len(x.Args) != 2 {
			return nil, in.rerr(f.Name, x, fmt.Errorf("flor.log(name, value) expects 2 arguments"))
		}
		nameV, err := in.eval(f, x.Args[0], env)
		if err != nil {
			return nil, err
		}
		name, ok := nameV.(string)
		if !ok {
			return nil, in.rerr(f.Name, x, fmt.Errorf("flor.log name must be a string"))
		}
		v, err := in.eval(f, x.Args[1], env)
		if err != nil {
			return nil, err
		}
		out, err := in.Hooks.Log(name, v)
		if err != nil {
			return nil, in.rerr(f.Name, x, err)
		}
		return out, nil
	case "flor.arg":
		var def Value
		if len(x.Args) >= 2 {
			v, err := in.eval(f, x.Args[1], env)
			if err != nil {
				return nil, err
			}
			def = v
		}
		for i, kw := range x.KwNames {
			if kw == "default" {
				v, err := in.eval(f, x.KwVals[i], env)
				if err != nil {
					return nil, err
				}
				def = v
			}
		}
		if len(x.Args) < 1 {
			return nil, in.rerr(f.Name, x, fmt.Errorf("flor.arg(name, default) requires a name"))
		}
		nameV, err := in.eval(f, x.Args[0], env)
		if err != nil {
			return nil, err
		}
		name, ok := nameV.(string)
		if !ok {
			return nil, in.rerr(f.Name, x, fmt.Errorf("flor.arg name must be a string"))
		}
		out, err := in.Hooks.Arg(name, def)
		if err != nil {
			return nil, in.rerr(f.Name, x, err)
		}
		return out, nil
	case "flor.commit":
		if err := in.Hooks.Commit(); err != nil {
			return nil, in.rerr(f.Name, x, err)
		}
		return nil, nil
	case "flor.loop":
		return nil, in.rerr(f.Name, x, fmt.Errorf("flor.loop is only valid as a for-loop iterable"))
	case "flor.checkpointing", "flor.iteration":
		return nil, in.rerr(f.Name, x, fmt.Errorf("%s is only valid in a with statement", x.Fn))
	}

	// Evaluate arguments.
	args := make([]Value, len(x.Args))
	for i, a := range x.Args {
		v, err := in.eval(f, a, env)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	var kwargs map[string]Value
	if len(x.KwNames) > 0 {
		kwargs = make(map[string]Value, len(x.KwNames))
		for i, k := range x.KwNames {
			v, err := in.eval(f, x.KwVals[i], env)
			if err != nil {
				return nil, err
			}
			kwargs[k] = v
		}
	}

	// User-defined function?
	if fv, ok := env.Get(x.Fn); ok {
		if fn, ok := fv.(*FuncValue); ok {
			if len(args) != len(fn.Def.Params) {
				return nil, in.rerr(f.Name, x, fmt.Errorf("%s expects %d arguments, got %d", fn.Def.Name, len(fn.Def.Params), len(args)))
			}
			local := NewEnv(fn.Env)
			for i, p := range fn.Def.Params {
				local.Define(p, args[i])
			}
			c, err := in.execBlock(f, fn.Def.Body, local)
			if err != nil {
				return nil, err
			}
			if c.kind == ctrlReturn {
				return c.val, nil
			}
			if c.kind != ctrlNone {
				return nil, in.rerr(f.Name, x, fmt.Errorf("break/continue escaped function %s", fn.Def.Name))
			}
			return nil, nil
		}
	}

	// Host function?
	if hf, ok := in.hosts[x.Fn]; ok {
		v, err := hf(args, kwargs)
		if err != nil {
			return nil, in.rerr(f.Name, x, err)
		}
		return v, nil
	}
	return nil, in.rerr(f.Name, x, fmt.Errorf("undefined function %q", x.Fn))
}

// iterate converts a value into a slice for for-in loops.
func iterate(v Value) ([]Value, error) {
	switch x := v.(type) {
	case *List:
		return append([]Value(nil), x.Items...), nil
	case *Dict:
		keys := x.Keys()
		out := make([]Value, len(keys))
		for i, k := range keys {
			out[i] = k
		}
		return out, nil
	case string:
		out := make([]Value, 0, len(x))
		for _, r := range x {
			out = append(out, string(r))
		}
		return out, nil
	default:
		return nil, fmt.Errorf("cannot iterate over %s", Repr(v))
	}
}

func getIndex(container, idx Value) (Value, error) {
	switch c := container.(type) {
	case *List:
		i, ok := idx.(int64)
		if !ok {
			return nil, fmt.Errorf("list index must be an integer")
		}
		if i < 0 {
			i += int64(len(c.Items))
		}
		if i < 0 || i >= int64(len(c.Items)) {
			return nil, fmt.Errorf("list index %d out of range (len %d)", i, len(c.Items))
		}
		return c.Items[i], nil
	case *Dict:
		k, ok := idx.(string)
		if !ok {
			return nil, fmt.Errorf("dict key must be a string")
		}
		v, found := c.Get(k)
		if !found {
			return nil, fmt.Errorf("missing dict key %q", k)
		}
		return v, nil
	case string:
		i, ok := idx.(int64)
		if !ok {
			return nil, fmt.Errorf("string index must be an integer")
		}
		if i < 0 {
			i += int64(len(c))
		}
		if i < 0 || i >= int64(len(c)) {
			return nil, fmt.Errorf("string index %d out of range", i)
		}
		return string(c[i]), nil
	default:
		return nil, fmt.Errorf("cannot index %s", Repr(container))
	}
}

func setIndex(container, idx, v Value) error {
	switch c := container.(type) {
	case *List:
		i, ok := idx.(int64)
		if !ok {
			return fmt.Errorf("list index must be an integer")
		}
		if i < 0 {
			i += int64(len(c.Items))
		}
		if i < 0 || i >= int64(len(c.Items)) {
			return fmt.Errorf("list index %d out of range (len %d)", i, len(c.Items))
		}
		c.Items[i] = v
		return nil
	case *Dict:
		k, ok := idx.(string)
		if !ok {
			return fmt.Errorf("dict key must be a string")
		}
		c.Set(k, v)
		return nil
	default:
		return fmt.Errorf("cannot index-assign %s", Repr(container))
	}
}

func containsSubstring(haystack, needle string) bool {
	if len(needle) == 0 {
		return true
	}
	for i := 0; i+len(needle) <= len(haystack); i++ {
		if haystack[i:i+len(needle)] == needle {
			return true
		}
	}
	return false
}
