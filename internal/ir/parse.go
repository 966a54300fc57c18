package ir

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// Parse reads the generic textual form produced by Print/PrintModule back
// into a Module. The outermost op must be builtin.module; a bare op list is
// also accepted and wrapped in a fresh module.
func Parse(src string) (*Module, error) {
	p := &parser{lex: newLexer(src), values: map[string]*Value{}}
	p.next()
	if p.tok.kind == tokString && p.tok.text == "builtin.module" {
		op, err := p.parseOp()
		if err != nil {
			return nil, err
		}
		if p.tok.kind != tokEOF {
			return nil, p.errf("trailing input after module")
		}
		return &Module{op: op}, nil
	}
	m := NewModule()
	for p.tok.kind != tokEOF {
		op, err := p.parseOp()
		if err != nil {
			return nil, err
		}
		m.Append(op)
	}
	return m, nil
}

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokPercent // %name
	tokCaret   // ^
	tokLParen
	tokRParen
	tokLBrace
	tokRBrace
	tokLBracket
	tokRBracket
	tokLess
	tokGreater
	tokColon
	tokComma
	tokEquals
	tokAt       // @
	tokHash     // #
	tokBang     // !
	tokArrow    // ->
	tokQuestion // ?
)

type token struct {
	kind tokenKind
	text string
	pos  int
}

type lexer struct {
	src  string
	pos  int
	line int
}

func newLexer(src string) *lexer { return &lexer{src: src, line: 1} }

func (l *lexer) next() token {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			l.line++
			l.pos++
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		default:
			goto lex
		}
	}
	return token{kind: tokEOF, pos: l.pos}
lex:
	start := l.pos
	c := l.src[l.pos]
	switch {
	case c == '"':
		l.pos++
		var sb strings.Builder
		for l.pos < len(l.src) && l.src[l.pos] != '"' {
			if l.src[l.pos] == '\\' && l.pos+1 < len(l.src) {
				l.pos++
				switch l.src[l.pos] {
				case 'n':
					sb.WriteByte('\n')
				case 't':
					sb.WriteByte('\t')
				default:
					sb.WriteByte(l.src[l.pos])
				}
			} else {
				sb.WriteByte(l.src[l.pos])
			}
			l.pos++
		}
		l.pos++ // closing quote
		return token{kind: tokString, text: sb.String(), pos: start}
	case c == '%':
		l.pos++
		id := l.lexIdentTail()
		return token{kind: tokPercent, text: id, pos: start}
	case c == '^':
		l.pos++
		l.lexIdentTail() // optional block label, ignored
		return token{kind: tokCaret, pos: start}
	case c == '@':
		l.pos++
		id := l.lexIdentTail()
		return token{kind: tokAt, text: id, pos: start}
	case c == '#':
		l.pos++
		return token{kind: tokHash, pos: start}
	case c == '!':
		l.pos++
		return token{kind: tokBang, pos: start}
	case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '>':
		l.pos += 2
		return token{kind: tokArrow, pos: start}
	case c == '-' || unicode.IsDigit(rune(c)):
		l.pos++
		for l.pos < len(l.src) && unicode.IsDigit(rune(l.src[l.pos])) {
			l.pos++
		}
		return token{kind: tokNumber, text: l.src[start:l.pos], pos: start}
	case unicode.IsLetter(rune(c)) || c == '_':
		id := l.lexIdentTail()
		return token{kind: tokIdent, text: id, pos: start}
	}
	l.pos++
	switch c {
	case '(':
		return token{kind: tokLParen, pos: start}
	case ')':
		return token{kind: tokRParen, pos: start}
	case '{':
		return token{kind: tokLBrace, pos: start}
	case '}':
		return token{kind: tokRBrace, pos: start}
	case '[':
		return token{kind: tokLBracket, pos: start}
	case ']':
		return token{kind: tokRBracket, pos: start}
	case '<':
		return token{kind: tokLess, pos: start}
	case '>':
		return token{kind: tokGreater, pos: start}
	case ':':
		return token{kind: tokColon, pos: start}
	case ',':
		return token{kind: tokComma, pos: start}
	case '=':
		return token{kind: tokEquals, pos: start}
	case '?':
		return token{kind: tokQuestion, pos: start}
	}
	return token{kind: tokEOF, text: string(c), pos: start}
}

func (l *lexer) lexIdentTail() string {
	start := l.pos
	for l.pos < len(l.src) {
		c := rune(l.src[l.pos])
		if unicode.IsLetter(c) || unicode.IsDigit(c) || c == '_' || c == '.' {
			l.pos++
		} else {
			break
		}
	}
	return l.src[start:l.pos]
}

type parser struct {
	lex    *lexer
	tok    token
	values map[string]*Value
}

func (p *parser) next() { p.tok = p.lex.next() }

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("parse error at line %d: %s", p.lex.line, fmt.Sprintf(format, args...))
}

func (p *parser) expect(k tokenKind, what string) error {
	if p.tok.kind != k {
		return p.errf("expected %s, got %q", what, p.tok.text)
	}
	p.next()
	return nil
}

// parseOp parses: [%r (, %r)* =] "name" (operands) [(regions)] [{attrs}] : (types) -> (types)
func (p *parser) parseOp() (*Op, error) {
	var resultNames []string
	if p.tok.kind == tokPercent {
		for {
			resultNames = append(resultNames, p.tok.text)
			p.next()
			if p.tok.kind == tokComma {
				p.next()
				if p.tok.kind != tokPercent {
					return nil, p.errf("expected result name after comma")
				}
				continue
			}
			break
		}
		if err := p.expect(tokEquals, "'='"); err != nil {
			return nil, err
		}
	}
	if p.tok.kind != tokString {
		return nil, p.errf("expected quoted op name, got %q", p.tok.text)
	}
	name := p.tok.text
	p.next()

	if err := p.expect(tokLParen, "'('"); err != nil {
		return nil, err
	}
	var operandNames []string
	for p.tok.kind == tokPercent {
		operandNames = append(operandNames, p.tok.text)
		p.next()
		if p.tok.kind == tokComma {
			p.next()
		}
	}
	if err := p.expect(tokRParen, "')'"); err != nil {
		return nil, err
	}

	// Regions come before attributes: ({...}, {...})
	var regionBodies []func(*Op) error
	if p.tok.kind == tokLParen {
		p.next()
		for p.tok.kind == tokLBrace {
			body, err := p.parseRegionBody()
			if err != nil {
				return nil, err
			}
			regionBodies = append(regionBodies, body)
			if p.tok.kind == tokComma {
				p.next()
			}
		}
		if err := p.expect(tokRParen, "')' after regions"); err != nil {
			return nil, err
		}
	}

	var attrs []namedAttr
	if p.tok.kind == tokLBrace {
		var err error
		attrs, err = p.parseAttrDict()
		if err != nil {
			return nil, err
		}
	}

	if err := p.expect(tokColon, "':'"); err != nil {
		return nil, err
	}
	operandTypes, err := p.parseTypeList()
	if err != nil {
		return nil, err
	}
	if err := p.expect(tokArrow, "'->'"); err != nil {
		return nil, err
	}
	resultTypes, err := p.parseTypeList()
	if err != nil {
		return nil, err
	}

	if len(operandTypes) != len(operandNames) {
		return nil, p.errf("op %q: %d operands but %d operand types", name, len(operandNames), len(operandTypes))
	}
	if len(resultTypes) != len(resultNames) {
		return nil, p.errf("op %q: %d results but %d result types", name, len(resultNames), len(resultTypes))
	}

	operands := make([]*Value, len(operandNames))
	for i, n := range operandNames {
		v, ok := p.values[n]
		if !ok {
			return nil, p.errf("use of undefined value %%%s", n)
		}
		if !TypesEqual(v.Type(), operandTypes[i]) {
			return nil, p.errf("type mismatch for %%%s: defined %s, used as %s", n, v.Type(), operandTypes[i])
		}
		operands[i] = v
	}

	op := NewOp(name, operands, resultTypes)
	for _, a := range attrs {
		op.SetAttr(a.key, a.val) // a repeated key: the last one wins
	}
	for i, rn := range resultNames {
		p.values[rn] = op.Result(i)
		if !isNumeric(rn) {
			op.Result(i).SetName(rn)
		}
	}
	for _, body := range regionBodies {
		if err := body(op); err != nil {
			return nil, err
		}
	}
	return op, nil
}

func isNumeric(s string) bool {
	for _, c := range s {
		if !unicode.IsDigit(c) {
			return false
		}
	}
	return len(s) > 0
}

// parseRegionBody consumes "{ [^(%a: T, ...):] ops... }" and returns a
// closure that, given the parent op, adds the region and its contents.
// Parsing happens eagerly; only attachment is deferred.
func (p *parser) parseRegionBody() (func(*Op) error, error) {
	if err := p.expect(tokLBrace, "'{'"); err != nil {
		return nil, err
	}
	var argNames []string
	var argTypes []Type
	if p.tok.kind == tokCaret {
		p.next()
		if err := p.expect(tokLParen, "'(' after '^'"); err != nil {
			return nil, err
		}
		for p.tok.kind == tokPercent {
			argNames = append(argNames, p.tok.text)
			p.next()
			if err := p.expect(tokColon, "':' in block arg"); err != nil {
				return nil, err
			}
			t, err := p.parseType()
			if err != nil {
				return nil, err
			}
			argTypes = append(argTypes, t)
			if p.tok.kind == tokComma {
				p.next()
			}
		}
		if err := p.expect(tokRParen, "')' after block args"); err != nil {
			return nil, err
		}
		if err := p.expect(tokColon, "':' after block args"); err != nil {
			return nil, err
		}
	}

	// Pre-create a detached block so nested values resolve while parsing.
	region := &Region{}
	region.block.region = region
	for i, n := range argNames {
		a := region.block.AddArg(argTypes[i])
		p.values[n] = a
		if !isNumeric(n) {
			a.SetName(n)
		}
	}
	for p.tok.kind != tokRBrace && p.tok.kind != tokEOF {
		op, err := p.parseOp()
		if err != nil {
			return nil, err
		}
		region.block.Append(op)
	}
	if err := p.expect(tokRBrace, "'}'"); err != nil {
		return nil, err
	}
	return func(parent *Op) error {
		region.parent = parent
		parent.regions = append(parent.regions, region)
		return nil
	}, nil
}

// parseAttrDict reads an attribute dictionary's entries in text order.
func (p *parser) parseAttrDict() ([]namedAttr, error) {
	if err := p.expect(tokLBrace, "'{'"); err != nil {
		return nil, err
	}
	var attrs []namedAttr
	for p.tok.kind == tokIdent || p.tok.kind == tokString {
		key := p.tok.text
		p.next()
		var a Attribute = UnitAttr{}
		if p.tok.kind == tokEquals {
			p.next()
			var err error
			if a, err = p.parseAttr(); err != nil {
				return nil, err
			}
		}
		attrs = append(attrs, namedAttr{key, a})
		if p.tok.kind == tokComma {
			p.next()
		}
	}
	if err := p.expect(tokRBrace, "'}' closing attributes"); err != nil {
		return nil, err
	}
	return attrs, nil
}

func (p *parser) parseAttr() (Attribute, error) {
	switch p.tok.kind {
	case tokNumber:
		v, err := strconv.ParseInt(p.tok.text, 10, 64)
		if err != nil {
			return nil, p.errf("bad integer %q", p.tok.text)
		}
		p.next()
		if p.tok.kind == tokColon {
			p.next()
			t, err := p.parseType()
			if err != nil {
				return nil, err
			}
			return IntegerAttrOf(v, t), nil
		}
		return IntAttr(v), nil
	case tokString:
		s := p.tok.text
		p.next()
		return StrAttr(s), nil
	case tokAt:
		s := p.tok.text
		p.next()
		return SymbolRefAttr{Symbol: s}, nil
	case tokIdent:
		switch p.tok.text {
		case "true":
			p.next()
			return BoolAttr{true}, nil
		case "false":
			p.next()
			return BoolAttr{false}, nil
		case "unit":
			p.next()
			return UnitAttr{}, nil
		}
		// A bare type used as an attribute, e.g. function signatures.
		t, err := p.parseType()
		if err != nil {
			return nil, err
		}
		return TypeAttr{Type: t}, nil
	case tokLBracket:
		p.next()
		var elems []Attribute
		for p.tok.kind != tokRBracket && p.tok.kind != tokEOF {
			a, err := p.parseAttr()
			if err != nil {
				return nil, err
			}
			elems = append(elems, a)
			if p.tok.kind == tokComma {
				p.next()
			}
		}
		if err := p.expect(tokRBracket, "']'"); err != nil {
			return nil, err
		}
		return ArrayAttr{Elems: elems}, nil
	case tokHash:
		p.next()
		if p.tok.kind != tokIdent || p.tok.text != "accfg.effects" {
			return nil, p.errf("unknown #-attribute %q", p.tok.text)
		}
		p.next()
		if err := p.expect(tokLess, "'<'"); err != nil {
			return nil, err
		}
		kind := p.tok.text
		p.next()
		if err := p.expect(tokGreater, "'>'"); err != nil {
			return nil, err
		}
		switch kind {
		case "all":
			return EffectsAttr{EffectsAll}, nil
		case "none":
			return EffectsAttr{EffectsNone}, nil
		}
		return nil, p.errf("unknown effects kind %q", kind)
	case tokLParen:
		// Function type attribute: (T, T) -> (T)
		t, err := p.parseFunctionType()
		if err != nil {
			return nil, err
		}
		return TypeAttr{Type: t}, nil
	case tokBang:
		t, err := p.parseType()
		if err != nil {
			return nil, err
		}
		return TypeAttr{Type: t}, nil
	}
	return nil, p.errf("cannot parse attribute at %q", p.tok.text)
}

func (p *parser) parseTypeList() ([]Type, error) {
	if err := p.expect(tokLParen, "'(' starting type list"); err != nil {
		return nil, err
	}
	var out []Type
	for p.tok.kind != tokRParen && p.tok.kind != tokEOF {
		t, err := p.parseType()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if p.tok.kind == tokComma {
			p.next()
		}
	}
	if err := p.expect(tokRParen, "')' closing type list"); err != nil {
		return nil, err
	}
	return out, nil
}

func (p *parser) parseFunctionType() (Type, error) {
	in, err := p.parseTypeList()
	if err != nil {
		return nil, err
	}
	if err := p.expect(tokArrow, "'->'"); err != nil {
		return nil, err
	}
	out, err := p.parseTypeList()
	if err != nil {
		return nil, err
	}
	return FuncType(in, out), nil
}

func (p *parser) parseType() (Type, error) {
	switch p.tok.kind {
	case tokLParen:
		return p.parseFunctionType()
	case tokBang:
		p.next()
		if p.tok.kind != tokIdent {
			return nil, p.errf("expected dialect type name after '!'")
		}
		name := p.tok.text
		p.next()
		if err := p.expect(tokLess, "'<'"); err != nil {
			return nil, err
		}
		if p.tok.kind != tokString {
			return nil, p.errf("expected accelerator name string in %s", name)
		}
		accel := p.tok.text
		p.next()
		if err := p.expect(tokGreater, "'>'"); err != nil {
			return nil, err
		}
		switch name {
		case "accfg.state":
			return StateType{Accelerator: accel}, nil
		case "accfg.token":
			return TokenType{Accelerator: accel}, nil
		}
		return nil, p.errf("unknown dialect type !%s", name)
	case tokIdent:
		name := p.tok.text
		p.next()
		switch {
		case name == "index":
			return Index, nil
		case name == "none":
			return NoneType{}, nil
		case name == "memref":
			if err := p.expect(tokLess, "'<'"); err != nil {
				return nil, err
			}
			// The shape "64x64xi8" lexes as several number/ident tokens;
			// join their text until the closing '>'.
			var spec strings.Builder
			for p.tok.kind == tokNumber || p.tok.kind == tokIdent || p.tok.kind == tokQuestion {
				if p.tok.kind == tokQuestion {
					spec.WriteByte('?')
				} else {
					spec.WriteString(p.tok.text)
				}
				p.next()
			}
			if err := p.expect(tokGreater, "'>'"); err != nil {
				return nil, err
			}
			return parseMemRefSpec(spec.String())
		case len(name) > 1 && name[0] == 'i' && isNumeric(name[1:]):
			w, _ := strconv.Atoi(name[1:])
			return IntegerType{Width: w}, nil
		}
		return nil, p.errf("unknown type %q", name)
	}
	return nil, p.errf("cannot parse type at %q", p.tok.text)
}

func parseMemRefSpec(spec string) (Type, error) {
	parts := strings.Split(spec, "x")
	var dims []int
	elem := Type(nil)
	for i, part := range parts {
		if i == len(parts)-1 {
			switch {
			case part == "index":
				elem = Index
			case len(part) > 1 && part[0] == 'i' && isNumeric(part[1:]):
				w, _ := strconv.Atoi(part[1:])
				elem = IntegerType{Width: w}
			default:
				return nil, fmt.Errorf("bad memref element type %q", part)
			}
			continue
		}
		if part == "?" {
			dims = append(dims, DynamicSize)
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad memref dimension %q", part)
		}
		dims = append(dims, n)
	}
	return MemRef(elem, dims...), nil
}
