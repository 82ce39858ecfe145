package sqlparse

import (
	"strings"
	"time"

	"flordb/internal/relation"
)

// Expr is a scalar or boolean expression node.
type Expr interface {
	// SQL renders the expression back to SQL-ish text (for column naming
	// and error messages).
	SQL() string
}

// ColumnRef names a column, optionally qualified ("t.col").
type ColumnRef struct {
	Table string
	Name  string
}

// SQL implements Expr.
func (c *ColumnRef) SQL() string {
	if c.Table != "" {
		return c.Table + "." + c.Name
	}
	return c.Name
}

// Literal is a constant value.
type Literal struct {
	Value relation.Value
}

// SQL implements Expr.
func (l *Literal) SQL() string {
	if l.Value.Type() == relation.TText {
		return "'" + strings.ReplaceAll(l.Value.AsText(), "'", "''") + "'"
	}
	return l.Value.String()
}

// Star is the "*" in SELECT * or COUNT(*).
type Star struct{}

// SQL implements Expr.
func (s *Star) SQL() string { return "*" }

// BinaryExpr applies an infix operator.
type BinaryExpr struct {
	Op    string // =, !=, <, <=, >, >=, AND, OR, LIKE, +, -, *, /, %
	Left  Expr
	Right Expr
}

// SQL implements Expr.
func (b *BinaryExpr) SQL() string {
	return "(" + b.Left.SQL() + " " + b.Op + " " + b.Right.SQL() + ")"
}

// UnaryExpr applies NOT or unary minus.
type UnaryExpr struct {
	Op   string // NOT, -
	Expr Expr
}

// SQL implements Expr.
func (u *UnaryExpr) SQL() string { return u.Op + " " + u.Expr.SQL() }

// IsNullExpr tests for NULL-ness.
type IsNullExpr struct {
	Expr   Expr
	Negate bool
}

// SQL implements Expr.
func (e *IsNullExpr) SQL() string {
	if e.Negate {
		return e.Expr.SQL() + " IS NOT NULL"
	}
	return e.Expr.SQL() + " IS NULL"
}

// InExpr tests membership in a literal list.
type InExpr struct {
	Expr   Expr
	List   []Expr
	Negate bool
}

// SQL implements Expr.
func (e *InExpr) SQL() string {
	parts := make([]string, len(e.List))
	for i, x := range e.List {
		parts[i] = x.SQL()
	}
	op := " IN ("
	if e.Negate {
		op = " NOT IN ("
	}
	return e.Expr.SQL() + op + strings.Join(parts, ", ") + ")"
}

// BetweenExpr tests lo <= expr <= hi.
type BetweenExpr struct {
	Expr   Expr
	Lo, Hi Expr
	Negate bool
}

// SQL implements Expr.
func (e *BetweenExpr) SQL() string {
	op := " BETWEEN "
	if e.Negate {
		op = " NOT BETWEEN "
	}
	return e.Expr.SQL() + op + e.Lo.SQL() + " AND " + e.Hi.SQL()
}

// FuncCall is an aggregate or scalar function call.
type FuncCall struct {
	Name string // lower-cased
	Args []Expr // a single Star for COUNT(*)
}

// SQL implements Expr.
func (f *FuncCall) SQL() string {
	parts := make([]string, len(f.Args))
	for i, a := range f.Args {
		parts[i] = a.SQL()
	}
	return f.Name + "(" + strings.Join(parts, ", ") + ")"
}

// IsAggregate reports whether the call is one of the supported aggregates.
func (f *FuncCall) IsAggregate() bool {
	switch f.Name {
	case "count", "sum", "avg", "min", "max":
		return true
	}
	return false
}

// SelectItem is one output column of a SELECT list.
type SelectItem struct {
	Expr  Expr
	Alias string // optional
}

// OutputName returns the column name the item produces.
func (s SelectItem) OutputName() string {
	if s.Alias != "" {
		return s.Alias
	}
	if c, ok := s.Expr.(*ColumnRef); ok {
		return c.Name
	}
	return s.Expr.SQL()
}

// TableRef names a table with an optional alias.
type TableRef struct {
	Name  string
	Alias string
}

// Binding returns the name the table is referred to by in expressions.
func (t TableRef) Binding() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Name
}

// JoinClause is one INNER JOIN ... ON a = b [AND c = d ...].
type JoinClause struct {
	Table TableRef
	On    Expr // conjunction of equality predicates
}

// OrderItem is one ORDER BY term.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// SelectStmt is the root of a parsed query.
type SelectStmt struct {
	// Explain marks an EXPLAIN SELECT: the statement is planned but not
	// executed, and the result is the rendered plan (one text row per line).
	Explain  bool
	Distinct bool
	Items    []SelectItem // empty means SELECT *
	From     TableRef
	Joins    []JoinClause
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    int64 // -1 when absent
	Offset   int64
	// AsOf pins the whole statement (all scanned tables) at a historical
	// epoch; nil means current visibility.
	AsOf *AsOfClause
}

// AsOfClause is the time-travel clause at the end of a SELECT:
// `AS OF <epoch>` names an MVCC commit epoch directly; `AS OF TIMESTAMP
// '<ts>'` names a commit wall-clock time, which the executor resolves to the
// greatest epoch committed at or before it through the catalog's MVCC clock
// (relation.TimeTraveler.EpochAt).
type AsOfClause struct {
	Epoch  int64
	Time   time.Time
	ByTime bool
}

// HasAggregates reports whether any select item or HAVING clause contains an
// aggregate function call.
func (s *SelectStmt) HasAggregates() bool {
	for _, it := range s.Items {
		if containsAggregate(it.Expr) {
			return true
		}
	}
	return s.Having != nil && containsAggregate(s.Having)
}

func containsAggregate(e Expr) bool {
	switch x := e.(type) {
	case *FuncCall:
		if x.IsAggregate() {
			return true
		}
		for _, a := range x.Args {
			if containsAggregate(a) {
				return true
			}
		}
	case *BinaryExpr:
		return containsAggregate(x.Left) || containsAggregate(x.Right)
	case *UnaryExpr:
		return containsAggregate(x.Expr)
	case *IsNullExpr:
		return containsAggregate(x.Expr)
	case *InExpr:
		if containsAggregate(x.Expr) {
			return true
		}
		for _, a := range x.List {
			if containsAggregate(a) {
				return true
			}
		}
	case *BetweenExpr:
		return containsAggregate(x.Expr) || containsAggregate(x.Lo) || containsAggregate(x.Hi)
	}
	return false
}
