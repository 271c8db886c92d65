package hql

import (
	"fmt"
	"strconv"

	"repro/internal/hrdmerr"
	"repro/internal/value"
)

// Parse parses a complete query. Binary operators are left-associative
// and equal-precedence; parenthesize to group. Lex and parse failures
// are classified as hrdmerr.ErrParse, so callers (and the wire
// protocol) can branch on the class without matching message text.
func Parse(src string) (Expr, error) {
	e, err := parse(src)
	if err != nil {
		return nil, hrdmerr.Wrap(hrdmerr.CodeParse, err)
	}
	return e, nil
}

func parse(src string) (Expr, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if !p.at(tokEOF) {
		return nil, p.errf("unexpected %s after complete query", p.peek())
	}
	return e, nil
}

type parser struct {
	toks []token
	i    int
}

func (p *parser) peek() token { return p.toks[p.i] }
func (p *parser) advance() token {
	t := p.toks[p.i]
	if t.kind != tokEOF {
		p.i++
	}
	return t
}

func (p *parser) at(kind tokenKind) bool { return p.peek().kind == kind }

func (p *parser) atKeyword(kw string) bool {
	t := p.peek()
	return t.kind == tokKeyword && t.text == kw
}

func (p *parser) eatKeyword(kw string) bool {
	if p.atKeyword(kw) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.eatKeyword(kw) {
		return p.errf("expected %s, found %s", kw, p.peek())
	}
	return nil
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("hql: at offset %d: %s", p.peek().pos, fmt.Sprintf(format, args...))
}

var binaryOps = map[string]bool{
	"UNION": true, "UNIONMERGE": true,
	"INTERSECT": true, "INTERSECTMERGE": true,
	"MINUS": true, "MINUSMERGE": true,
	"TIMES": true, "JOIN": true, "NATJOIN": true, "TIMEJOIN": true,
	"OUTERJOIN": true,
}

// parseExpr := unary (BINOP unary [ON ...])*
func (p *parser) parseExpr() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.peek().kind == tokKeyword && binaryOps[p.peek().text] {
		op := p.advance().text
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		be := &BinaryExpr{Op: op, Left: left, Right: right}
		switch op {
		case "JOIN", "OUTERJOIN":
			if err := p.expectKeyword("ON"); err != nil {
				return nil, err
			}
			a, err := p.expectIdent("join attribute")
			if err != nil {
				return nil, err
			}
			th, err := p.expectTheta()
			if err != nil {
				return nil, err
			}
			b, err := p.expectIdent("join attribute")
			if err != nil {
				return nil, err
			}
			be.AttrA, be.Theta, be.AttrB = a, th, b
		case "TIMEJOIN":
			if err := p.expectKeyword("ON"); err != nil {
				return nil, err
			}
			a, err := p.expectIdent("time-join attribute")
			if err != nil {
				return nil, err
			}
			be.AttrA = a
		}
		left = be
	}
	return left, nil
}

func (p *parser) parseUnary() (Expr, error) {
	t := p.peek()
	switch {
	case t.kind == tokLParen:
		p.advance()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if !p.at(tokRParen) {
			return nil, p.errf("expected ), found %s", p.peek())
		}
		p.advance()
		return e, nil
	case t.kind == tokIdent:
		p.advance()
		return &RelName{Name: t.text}, nil
	case t.kind == tokKeyword:
		switch t.text {
		case "SELECT":
			return p.parseSelect()
		case "PROJECT":
			return p.parseProject()
		case "TIMESLICE":
			return p.parseTimeslice()
		case "WHEN":
			p.advance()
			src, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			return &WhenExpr{Source: src}, nil
		case "SNAPSHOT":
			return p.parseSnapshot()
		case "RENAME":
			return p.parseRename()
		case "MATERIALIZE":
			p.advance()
			src, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			return &MaterializeExpr{Source: src}, nil
		}
	}
	return nil, p.errf("expected a query expression, found %s", t)
}

func (p *parser) parseSelect() (Expr, error) {
	p.advance() // SELECT
	var when bool
	switch {
	case p.eatKeyword("WHEN"):
		when = true
	case p.eatKeyword("IF"):
	default:
		return nil, p.errf("expected IF or WHEN after SELECT, found %s", p.peek())
	}
	cond, err := p.parseCond()
	if err != nil {
		return nil, err
	}
	e := &SelectExpr{When: when, Cond: cond}
	if !when {
		switch {
		case p.eatKeyword("FORALL"):
			e.ForAll = true
		case p.eatKeyword("EXISTS"):
		}
	}
	if p.atKeyword("DURING") {
		p.advance()
		ls, err := p.parseLS()
		if err != nil {
			return nil, err
		}
		e.During = ls
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	src, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	e.Source = src
	return e, nil
}

func (p *parser) parseProject() (Expr, error) {
	p.advance() // PROJECT
	var attrs []string
	for {
		a, err := p.expectIdent("attribute")
		if err != nil {
			return nil, err
		}
		attrs = append(attrs, a)
		if !p.at(tokComma) {
			break
		}
		p.advance()
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	src, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	return &ProjectExpr{Attrs: attrs, Source: src}, nil
}

func (p *parser) parseTimeslice() (Expr, error) {
	p.advance() // TIMESLICE
	src, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	switch {
	case p.eatKeyword("AT"):
		ls, err := p.parseLS()
		if err != nil {
			return nil, err
		}
		return &TimesliceExpr{Source: src, At: ls}, nil
	case p.eatKeyword("BY"):
		a, err := p.expectIdent("time-valued attribute")
		if err != nil {
			return nil, err
		}
		return &TimesliceExpr{Source: src, By: a}, nil
	}
	return nil, p.errf("expected AT or BY after TIMESLICE operand, found %s", p.peek())
}

func (p *parser) parseSnapshot() (Expr, error) {
	p.advance() // SNAPSHOT
	src, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("AT"); err != nil {
		return nil, err
	}
	t := p.peek()
	if t.kind != tokInt && t.kind != tokTime {
		return nil, p.errf("expected a time, found %s", t)
	}
	p.advance()
	n, err := strconv.ParseInt(t.text, 10, 64)
	if err != nil {
		return nil, p.errf("bad time literal %q", t.text)
	}
	return &SnapshotExpr{Source: src, At: n, Slot: t.slot}, nil
}

func (p *parser) parseRename() (Expr, error) {
	p.advance() // RENAME
	src, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("AS"); err != nil {
		return nil, err
	}
	prefix, err := p.expectIdent("prefix")
	if err != nil {
		return nil, err
	}
	return &RenameExpr{Source: src, Prefix: prefix}, nil
}

// parseCond := andCond (OR andCond)*
// andCond   := notCond (AND notCond)*
// notCond   := NOT notCond | '(' parseCond ')' | pred
func (p *parser) parseCond() (CondExpr, error) {
	left, err := p.parseAndCond()
	if err != nil {
		return CondExpr{}, err
	}
	kids := []CondExpr{left}
	for p.eatKeyword("OR") {
		k, err := p.parseAndCond()
		if err != nil {
			return CondExpr{}, err
		}
		kids = append(kids, k)
	}
	if len(kids) == 1 {
		return kids[0], nil
	}
	return CondExpr{Op: "OR", Kids: kids}, nil
}

func (p *parser) parseAndCond() (CondExpr, error) {
	left, err := p.parseNotCond()
	if err != nil {
		return CondExpr{}, err
	}
	kids := []CondExpr{left}
	for p.eatKeyword("AND") {
		k, err := p.parseNotCond()
		if err != nil {
			return CondExpr{}, err
		}
		kids = append(kids, k)
	}
	if len(kids) == 1 {
		return kids[0], nil
	}
	return CondExpr{Op: "AND", Kids: kids}, nil
}

func (p *parser) parseNotCond() (CondExpr, error) {
	if p.eatKeyword("NOT") {
		k, err := p.parseNotCond()
		if err != nil {
			return CondExpr{}, err
		}
		return CondExpr{Op: "NOT", Kids: []CondExpr{k}}, nil
	}
	if p.at(tokLParen) {
		p.advance()
		c, err := p.parseCond()
		if err != nil {
			return CondExpr{}, err
		}
		if !p.at(tokRParen) {
			return CondExpr{}, p.errf("expected ) in condition, found %s", p.peek())
		}
		p.advance()
		return c, nil
	}
	pred, err := p.parsePred()
	if err != nil {
		return CondExpr{}, err
	}
	return CondExpr{Pred: &pred}, nil
}

// parsePred := IDENT theta (constant | IDENT)
func (p *parser) parsePred() (PredExpr, error) {
	attr, err := p.expectIdent("attribute")
	if err != nil {
		return PredExpr{}, err
	}
	th, err := p.expectTheta()
	if err != nil {
		return PredExpr{}, err
	}
	t := p.peek()
	pe := PredExpr{Attr: attr, Theta: th}
	if t.kind == tokIdent {
		p.advance()
		pe.OtherAttr = t.text
		return pe, nil
	}
	k, ok := t.lit()
	if !ok || k == LitLifespan {
		return PredExpr{}, p.errf("expected a value or attribute, found %s", t)
	}
	p.advance()
	if pe.Const, err = literalValue(k, t.text); err != nil {
		return PredExpr{}, p.errf("bad %s %q", litNames[k], t.text)
	}
	pe.Slot = t.slot
	return pe, nil
}

// litNames name the value literal kinds in parse errors.
var litNames = [...]string{LitInt: "integer", LitFloat: "float", LitTime: "time"}

// parseLS := lsPrimary ((UNION|INTERSECT|MINUS) lsPrimary)*
func (p *parser) parseLS() (*LSExpr, error) {
	left, err := p.parseLSPrimary()
	if err != nil {
		return nil, err
	}
	for p.atKeyword("UNION") || p.atKeyword("INTERSECT") || p.atKeyword("MINUS") {
		op := p.advance().text
		right, err := p.parseLSPrimary()
		if err != nil {
			return nil, err
		}
		left = &LSExpr{Op: op, Left: left, Right: right}
	}
	return left, nil
}

// lsPrimary := LIFESPAN | WHEN unary | '(' parseLS ')'
func (p *parser) parseLSPrimary() (*LSExpr, error) {
	t := p.peek()
	switch {
	case t.kind == tokLParen:
		p.advance()
		ls, err := p.parseLS()
		if err != nil {
			return nil, err
		}
		if !p.at(tokRParen) {
			return nil, p.errf("expected ) in lifespan, found %s", p.peek())
		}
		p.advance()
		return ls, nil
	case t.kind == tokLifespan:
		p.advance()
		return &LSExpr{Literal: t.text, Slot: t.slot}, nil
	case t.kind == tokKeyword && t.text == "WHEN":
		p.advance()
		src, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &LSExpr{When: src}, nil
	}
	return nil, p.errf("expected a lifespan literal, WHEN or (, found %s", t)
}

func (p *parser) expectIdent(what string) (string, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return "", p.errf("expected %s, found %s", what, t)
	}
	p.advance()
	return t.text, nil
}

func (p *parser) expectTheta() (value.Theta, error) {
	t := p.peek()
	if t.kind != tokTheta {
		return 0, p.errf("expected a comparator, found %s", t)
	}
	p.advance()
	return value.ParseTheta(t.text)
}
