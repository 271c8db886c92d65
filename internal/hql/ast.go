package hql

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/value"
)

// Expr is a parsed query expression. Relation-valued expressions
// evaluate to historical relations; WHEN expressions evaluate to
// lifespans; SNAPSHOT expressions evaluate to classical relations.
type Expr interface {
	fmt.Stringer
	exprNode()
}

// RelName references a stored relation by name.
type RelName struct{ Name string }

// SelectExpr is SELECT IF/WHEN cond [FORALL|EXISTS] [DURING ls] FROM
// expr, where cond is a boolean combination (AND/OR/NOT, parentheses) of
// simple predicates.
type SelectExpr struct {
	When   bool // true: SELECT-WHEN; false: SELECT-IF
	Cond   CondExpr
	ForAll bool    // SELECT-IF only
	During *LSExpr // optional L parameter; nil means T
	Source Expr
}

// CondExpr is a parsed condition tree: either a leaf predicate or a
// boolean combination.
type CondExpr struct {
	Pred *PredExpr  // leaf
	Op   string     // "AND", "OR", "NOT"
	Kids []CondExpr // operands (one for NOT)
}

// String renders the condition.
func (c CondExpr) String() string {
	if c.Pred != nil {
		return c.Pred.String()
	}
	if c.Op == "NOT" {
		return "NOT (" + c.Kids[0].String() + ")"
	}
	parts := make([]string, len(c.Kids))
	for i, k := range c.Kids {
		parts[i] = k.String()
	}
	return "(" + strings.Join(parts, " "+c.Op+" ") + ")"
}

// ProjectExpr is PROJECT attrs FROM expr.
type ProjectExpr struct {
	Attrs  []string
	Source Expr
}

// TimesliceExpr is TIMESLICE expr AT ls (static) or TIMESLICE expr BY
// attr (dynamic).
type TimesliceExpr struct {
	Source Expr
	At     *LSExpr // static form
	By     string  // dynamic form (time-valued attribute)
}

// BinaryExpr covers the set-theoretic operators, product and joins.
type BinaryExpr struct {
	Op          string // UNION, UNIONMERGE, INTERSECT, INTERSECTMERGE, MINUS, MINUSMERGE, TIMES, JOIN, NATJOIN, TIMEJOIN
	Left, Right Expr
	// JOIN: ON AttrA theta AttrB. TIMEJOIN: ON AttrA.
	AttrA, AttrB string
	Theta        value.Theta
}

// RenameExpr is RENAME expr AS prefix.
type RenameExpr struct {
	Source Expr
	Prefix string
}

// MaterializeExpr is MATERIALIZE expr — lift the representation level to
// the model level by applying each attribute's interpolation function.
type MaterializeExpr struct{ Source Expr }

// WhenExpr is WHEN expr — relation to lifespan.
type WhenExpr struct{ Source Expr }

// SnapshotExpr is SNAPSHOT expr AT time — relation to classical relation.
// Slot is the time literal's slot (see PredExpr).
type SnapshotExpr struct {
	Source Expr
	At     int64
	Slot   int
}

// PredExpr is the selection criterion A θ rhs. Slot is the slot of a
// constant's literal: its index, in source order, among the literals of
// the parsed text — where Lift puts its value in the parameter vector.
type PredExpr struct {
	Attr  string
	Theta value.Theta
	// Exactly one of Const/OtherAttr is set.
	Const     value.Value
	OtherAttr string
	Slot      int
}

// LSExpr is a lifespan-valued expression: a literal (with its slot, see
// PredExpr), WHEN expr, or a set-theoretic combination.
type LSExpr struct {
	Literal string // "{...}" when a literal
	Slot    int
	When    Expr   // WHEN sub-expression
	Op      string // UNION, INTERSECT, MINUS combining Left and Right
	Left    *LSExpr
	Right   *LSExpr
}

func (*RelName) exprNode()         {}
func (*SelectExpr) exprNode()      {}
func (*ProjectExpr) exprNode()     {}
func (*TimesliceExpr) exprNode()   {}
func (*BinaryExpr) exprNode()      {}
func (*RenameExpr) exprNode()      {}
func (*MaterializeExpr) exprNode() {}
func (*WhenExpr) exprNode()        {}
func (*SnapshotExpr) exprNode()    {}

func (e *RelName) String() string { return e.Name }

func (e *SelectExpr) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if e.When {
		b.WriteString("WHEN ")
	} else {
		b.WriteString("IF ")
	}
	b.WriteString(e.Cond.String())
	if !e.When {
		if e.ForAll {
			b.WriteString(" FORALL")
		} else {
			b.WriteString(" EXISTS")
		}
	}
	if e.During != nil {
		b.WriteString(" DURING " + e.During.String())
	}
	b.WriteString(" FROM " + e.Source.String())
	return b.String()
}

func (e *ProjectExpr) String() string {
	return "PROJECT " + strings.Join(e.Attrs, ", ") + " FROM " + e.Source.String()
}

func (e *TimesliceExpr) String() string {
	if e.By != "" {
		return "TIMESLICE " + e.Source.String() + " BY " + e.By
	}
	return "TIMESLICE " + e.Source.String() + " AT " + e.At.String()
}

func (e *BinaryExpr) String() string {
	left := e.Left.String()
	switch e.Op {
	case "UNION", "INTERSECT", "MINUS":
		if endsInLifespan(e.Left) {
			// Else the operator would continue the operand's lifespan:
			// TIMESLICE R AT L UNION S parses as R sliced at L ∪ S.
			left = "(" + left + ")"
		}
	}
	s := "(" + left + " " + e.Op + " " + e.Right.String()
	switch e.Op {
	case "JOIN", "OUTERJOIN":
		s += " ON " + e.AttrA + " " + e.Theta.String() + " " + e.AttrB
	case "TIMEJOIN":
		s += " ON " + e.AttrA
	}
	return s + ")"
}

// endsInLifespan reports whether e's rendering ends with a lifespan
// expression: a static TIME-SLICE, or a prefix operator over one.
func endsInLifespan(e Expr) bool {
	switch n := e.(type) {
	case *TimesliceExpr:
		return n.At != nil
	case *SelectExpr:
		return endsInLifespan(n.Source)
	case *ProjectExpr:
		return endsInLifespan(n.Source)
	case *MaterializeExpr:
		return endsInLifespan(n.Source)
	case *WhenExpr:
		return endsInLifespan(n.Source)
	}
	return false
}

func (e *RenameExpr) String() string {
	return "RENAME " + e.Source.String() + " AS " + e.Prefix
}

func (e *MaterializeExpr) String() string { return "MATERIALIZE " + e.Source.String() }

func (e *WhenExpr) String() string { return "WHEN " + e.Source.String() }

func (e *SnapshotExpr) String() string {
	return fmt.Sprintf("SNAPSHOT %s AT %d", e.Source, e.At)
}

func (p PredExpr) String() string {
	rhs := p.OtherAttr
	if rhs == "" {
		rhs = constLiteral(p.Const)
	}
	return p.Attr + " " + p.Theta.String() + " " + rhs
}

// constLiteral spells a constant as a literal of its own kind: a float
// keeps a decimal point and a time its integer, where value.String
// would print 1 and +inf, which lex as an integer and not at all.
func constLiteral(v value.Value) string {
	switch v.Kind() {
	case value.KindFloat:
		s := strconv.FormatFloat(v.AsFloat(), 'f', -1, 64)
		if !strings.ContainsRune(s, '.') {
			s += ".0"
		}
		return s
	case value.KindTime:
		return "@" + strconv.FormatInt(int64(v.AsTime()), 10)
	}
	return v.String()
}

func (l *LSExpr) String() string {
	switch {
	case l.Literal != "":
		return l.Literal
	case l.When != nil:
		return "WHEN (" + l.When.String() + ")"
	default:
		return "(" + l.Left.String() + " " + l.Op + " " + l.Right.String() + ")"
	}
}
