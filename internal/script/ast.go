package script

import (
	"fmt"
	"strconv"
	"strings"
)

// Node is any AST node.
type Node interface {
	// Line is the 1-based source line the node starts on. A statement
	// propagation injects keeps its line in the version it came from.
	Line() int
}

// Stmt is a statement node.
type Stmt interface {
	Node
	stmtNode()
	// Signature renders a canonical one-line header for the statement,
	// used by cross-version alignment (block bodies excluded).
	Signature() string
}

// Expr is an expression node.
type Expr interface {
	Node
	exprNode()
	// Render prints the expression canonically.
	Render() string
}

type pos struct{ line int }

func (p pos) Line() int { return p.line }

// ---------- Expressions ----------

// NumberLit is an integer or float literal.
type NumberLit struct {
	pos
	IsInt bool
	I     int64
	F     float64
}

func (*NumberLit) exprNode() {}

// Render implements Expr.
func (e *NumberLit) Render() string {
	if e.IsInt {
		return strconv.FormatInt(e.I, 10)
	}
	s := strconv.FormatFloat(e.F, 'g', -1, 64)
	if !strings.ContainsAny(s, ".eE") {
		s += ".0"
	}
	return s
}

// StringLit is a string literal.
type StringLit struct {
	pos
	S string
}

func (*StringLit) exprNode() {}

// Render implements Expr.
func (e *StringLit) Render() string { return strconv.Quote(e.S) }

// BoolLit is true/false.
type BoolLit struct {
	pos
	B bool
}

func (*BoolLit) exprNode() {}

// Render implements Expr.
func (e *BoolLit) Render() string {
	if e.B {
		return "true"
	}
	return "false"
}

// NilLit is nil.
type NilLit struct{ pos }

func (*NilLit) exprNode() {}

// Render implements Expr.
func (e *NilLit) Render() string { return "nil" }

// NameExpr references a (possibly dotted) name such as "x" or "flor.log".
type NameExpr struct {
	pos
	Name string
}

func (*NameExpr) exprNode() {}

// Render implements Expr.
func (e *NameExpr) Render() string { return e.Name }

// ListLit is [a, b, c].
type ListLit struct {
	pos
	Items []Expr
}

func (*ListLit) exprNode() {}

// Render implements Expr.
func (e *ListLit) Render() string {
	parts := make([]string, len(e.Items))
	for i, it := range e.Items {
		parts[i] = it.Render()
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// DictLit is {k: v, ...}.
type DictLit struct {
	pos
	Keys []Expr
	Vals []Expr
}

func (*DictLit) exprNode() {}

// Render implements Expr.
func (e *DictLit) Render() string {
	parts := make([]string, len(e.Keys))
	for i := range e.Keys {
		parts[i] = e.Keys[i].Render() + ": " + e.Vals[i].Render()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// IndexExpr is x[i].
type IndexExpr struct {
	pos
	X     Expr
	Index Expr
}

func (*IndexExpr) exprNode() {}

// Render implements Expr.
func (e *IndexExpr) Render() string { return e.X.Render() + "[" + e.Index.Render() + "]" }

// CallExpr calls a dotted name with positional and keyword arguments.
type CallExpr struct {
	pos
	Fn      string
	Args    []Expr
	KwNames []string
	KwVals  []Expr
}

func (*CallExpr) exprNode() {}

// Render implements Expr.
func (e *CallExpr) Render() string {
	var parts []string
	for _, a := range e.Args {
		parts = append(parts, a.Render())
	}
	for i, k := range e.KwNames {
		parts = append(parts, k+"="+e.KwVals[i].Render())
	}
	return e.Fn + "(" + strings.Join(parts, ", ") + ")"
}

// BinaryExpr applies an infix operator.
type BinaryExpr struct {
	pos
	Op   string
	L, R Expr
}

func (*BinaryExpr) exprNode() {}

// Render implements Expr.
func (e *BinaryExpr) Render() string {
	return "(" + e.L.Render() + " " + e.Op + " " + e.R.Render() + ")"
}

// UnaryExpr applies "not" or unary minus.
type UnaryExpr struct {
	pos
	Op string
	X  Expr
}

func (*UnaryExpr) exprNode() {}

// Render implements Expr.
func (e *UnaryExpr) Render() string {
	if e.Op == "not" {
		return "not " + e.X.Render()
	}
	return e.Op + e.X.Render()
}

// ---------- Statements ----------

// AssignStmt is `target = expr` where target is a name or index expression.
type AssignStmt struct {
	pos
	Target Expr // *NameExpr or *IndexExpr
	Value  Expr
}

func (*AssignStmt) stmtNode() {}

// Signature implements Stmt.
func (s *AssignStmt) Signature() string { return s.Target.Render() + " = " + s.Value.Render() }

// ExprStmt evaluates an expression for effect.
type ExprStmt struct {
	pos
	X Expr
}

func (*ExprStmt) stmtNode() {}

// Signature implements Stmt.
func (s *ExprStmt) Signature() string { return s.X.Render() }

// IfStmt is if/else; chained "else if" nests in Else.
type IfStmt struct {
	pos
	Cond Expr
	Then []Stmt
	Else []Stmt
}

func (*IfStmt) stmtNode() {}

// Signature implements Stmt.
func (s *IfStmt) Signature() string { return "if " + s.Cond.Render() }

// ForStmt is `for v in iterable { body }`.
type ForStmt struct {
	pos
	Var      string
	Iterable Expr
	Body     []Stmt
}

func (*ForStmt) stmtNode() {}

// Signature implements Stmt.
func (s *ForStmt) Signature() string { return "for " + s.Var + " in " + s.Iterable.Render() }

// WhileStmt is `while cond { body }`.
type WhileStmt struct {
	pos
	Cond Expr
	Body []Stmt
}

func (*WhileStmt) stmtNode() {}

// Signature implements Stmt.
func (s *WhileStmt) Signature() string { return "while " + s.Cond.Render() }

// FuncStmt defines a function.
type FuncStmt struct {
	pos
	Name   string
	Params []string
	Body   []Stmt
}

func (*FuncStmt) stmtNode() {}

// Signature implements Stmt.
func (s *FuncStmt) Signature() string {
	return "func " + s.Name + "(" + strings.Join(s.Params, ", ") + ")"
}

// ReturnStmt returns from a function.
type ReturnStmt struct {
	pos
	X Expr // may be nil
}

func (*ReturnStmt) stmtNode() {}

// Signature implements Stmt.
func (s *ReturnStmt) Signature() string {
	if s.X == nil {
		return "return"
	}
	return "return " + s.X.Render()
}

// BreakStmt breaks the innermost loop.
type BreakStmt struct{ pos }

func (*BreakStmt) stmtNode() {}

// Signature implements Stmt.
func (s *BreakStmt) Signature() string { return "break" }

// ContinueStmt continues the innermost loop.
type ContinueStmt struct{ pos }

func (*ContinueStmt) stmtNode() {}

// Signature implements Stmt.
func (s *ContinueStmt) Signature() string { return "continue" }

// WithStmt is `with call { body }` — used for flor.checkpointing and
// flor.iteration context managers.
type WithStmt struct {
	pos
	Call *CallExpr
	Body []Stmt
}

func (*WithStmt) stmtNode() {}

// Signature implements Stmt.
func (s *WithStmt) Signature() string { return "with " + s.Call.Render() }

// File is a parsed Flow source file. An AST is immutable after Parse:
// nothing writes to a node, so files may share nodes (propagation builds a
// merged file from the nodes of both versions) and goroutines may run and
// read one file at once.
type File struct {
	Name  string
	Stmts []Stmt
}

// ---------- Pretty printer ----------

// Print renders a file canonically; parsing the output yields an equivalent
// AST. Used for committing canonical text, computing statement signatures,
// and materializing propagated versions.
func Print(f *File) string {
	var sb strings.Builder
	printStmts(&sb, f.Stmts, 0)
	return sb.String()
}

func printStmts(sb *strings.Builder, stmts []Stmt, depth int) {
	indent := strings.Repeat("    ", depth)
	for _, s := range stmts {
		bodies := Body(s)
		if bodies == nil {
			fmt.Fprintf(sb, "%s%s\n", indent, s.Signature())
			continue
		}
		fmt.Fprintf(sb, "%s%s {\n", indent, s.Signature())
		printStmts(sb, bodies[0], depth+1)
		if x, ok := s.(*IfStmt); ok && len(x.Else) > 0 {
			fmt.Fprintf(sb, "%s} else {\n", indent)
			printStmts(sb, x.Else, depth+1)
		}
		fmt.Fprintf(sb, "%s}\n", indent)
	}
}

// Body returns the child statement blocks of a compound statement, or nil
// for simple statements. IfStmt returns Then and Else.
func Body(s Stmt) [][]Stmt {
	switch x := s.(type) {
	case *IfStmt:
		return [][]Stmt{x.Then, x.Else}
	case *ForStmt:
		return [][]Stmt{x.Body}
	case *WhileStmt:
		return [][]Stmt{x.Body}
	case *FuncStmt:
		return [][]Stmt{x.Body}
	case *WithStmt:
		return [][]Stmt{x.Body}
	default:
		return nil
	}
}

// withBodies returns a shallow copy of the compound statement s holding
// bodies, given in Body's order, in place of its own.
func withBodies(s Stmt, bodies [][]Stmt) Stmt {
	switch x := s.(type) {
	case *IfStmt:
		c := *x
		c.Then, c.Else = bodies[0], bodies[1]
		return &c
	case *ForStmt:
		c := *x
		c.Body = bodies[0]
		return &c
	case *WhileStmt:
		c := *x
		c.Body = bodies[0]
		return &c
	case *FuncStmt:
		c := *x
		c.Body = bodies[0]
		return &c
	case *WithStmt:
		c := *x
		c.Body = bodies[0]
		return &c
	}
	return s
}

// Inspect calls fn on every statement in stmts and nested in them, each
// compound statement before its bodies, and stops at the first for which
// fn returns true. It reports whether fn did.
func Inspect(stmts []Stmt, fn func(Stmt) bool) bool {
	for _, s := range stmts {
		if fn(s) {
			return true
		}
		for _, b := range Body(s) {
			if Inspect(b, fn) {
				return true
			}
		}
	}
	return false
}
