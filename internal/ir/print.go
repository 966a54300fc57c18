package ir

import (
	"fmt"
	"strings"
	"unicode"
)

// printer renders ops in a generic MLIR-like textual syntax that the parser
// in parse.go can read back. Example:
//
//	%0 = "arith.constant"() {value = 5 : i64} : () -> (i64)
//	%1 = "accfg.setup"(%0) {accelerator = "gemm"} : (i64) -> (!accfg.state<"gemm">)
type printer struct {
	sb     strings.Builder
	names  map[*Value]string
	nextID int
	taken  map[string]bool
}

func newPrinter() *printer {
	return &printer{names: map[*Value]string{}, taken: map[string]bool{}}
}

func (p *printer) valueName(v *Value) string {
	if n, ok := p.names[v]; ok {
		return n
	}
	var n string
	if v.name != "" {
		// A taken name gets the first free suffix. Suffixes draw on no
		// counter the unnamed values share, so text that is parsed and
		// printed again — every name in it unique — numbers them the same.
		n = v.name
		for k := 1; p.taken[n]; k++ {
			n = fmt.Sprintf("%s_%d", v.name, k)
		}
	} else {
		n = fmt.Sprint(p.nextID)
		p.nextID++
	}
	p.taken[n] = true
	p.names[v] = n
	return n
}

func (p *printer) printOp(op *Op, indent string) {
	p.sb.WriteString(indent)
	if len(op.results) > 0 {
		parts := make([]string, len(op.results))
		for i, r := range op.results {
			parts[i] = "%" + p.valueName(r)
		}
		p.sb.WriteString(strings.Join(parts, ", "))
		p.sb.WriteString(" = ")
	}
	p.sb.WriteString(quote(op.name))
	p.sb.WriteByte('(')
	for i, o := range op.operands {
		if i > 0 {
			p.sb.WriteString(", ")
		}
		if o == nil {
			p.sb.WriteString("<<null>>")
			continue
		}
		p.sb.WriteString("%" + p.valueName(o))
	}
	p.sb.WriteByte(')')

	if len(op.regions) > 0 {
		p.sb.WriteString(" (")
		for i, r := range op.regions {
			if i > 0 {
				p.sb.WriteString(", ")
			}
			p.printRegion(r, indent)
		}
		p.sb.WriteByte(')')
	}

	if d := attrDictString(op.attrs); d != "" {
		p.sb.WriteByte(' ')
		p.sb.WriteString(d)
	}

	p.sb.WriteString(" : (")
	for i, o := range op.operands {
		if i > 0 {
			p.sb.WriteString(", ")
		}
		if o == nil {
			p.sb.WriteString("<<null>>")
			continue
		}
		p.sb.WriteString(o.typ.String())
	}
	p.sb.WriteString(") -> (")
	for i, r := range op.results {
		if i > 0 {
			p.sb.WriteString(", ")
		}
		p.sb.WriteString(r.typ.String())
	}
	p.sb.WriteString(")\n")
}

func (p *printer) printRegion(r *Region, indent string) {
	blk := r.Block()
	p.sb.WriteString("{\n")
	inner := indent + "  "
	if blk.NumArgs() > 0 {
		p.sb.WriteString(inner)
		p.sb.WriteString("^(")
		for i, a := range blk.args {
			if i > 0 {
				p.sb.WriteString(", ")
			}
			fmt.Fprintf(&p.sb, "%%%s: %s", p.valueName(a), a.typ)
		}
		p.sb.WriteString("):\n")
	}
	for o := blk.First(); o != nil; o = o.Next() {
		p.printOp(o, inner)
	}
	p.sb.WriteString(indent)
	p.sb.WriteByte('}')
}

// quote renders s as the string literal the lexer reads back to s: the
// inverse of its unescaping, byte for byte (strconv.Quote's \x and \u
// escapes are not in the lexer's language).
func quote(s string) string {
	if !strings.ContainsAny(s, "\"\\\n\t") {
		return `"` + s + `"`
	}
	var sb strings.Builder
	sb.WriteByte('"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '"', '\\':
			sb.WriteByte('\\')
			sb.WriteByte(c)
		case '\n':
			sb.WriteString(`\n`)
		case '\t':
			sb.WriteString(`\t`)
		default:
			sb.WriteByte(c)
		}
	}
	sb.WriteByte('"')
	return sb.String()
}

// isIdent reports whether the lexer reads s back as one identifier token;
// an attribute key that is not one is printed quoted.
func isIdent(s string) bool {
	if s == "" || !unicode.IsLetter(rune(s[0])) && s[0] != '_' {
		return false
	}
	l := lexer{src: s}
	l.lexIdentTail()
	return l.pos == len(s)
}

// Print renders a single op (and its nested regions) as text.
func Print(op *Op) string {
	p := newPrinter()
	p.printOp(op, "")
	return p.sb.String()
}

// PrintModule renders the whole module as text.
func PrintModule(m *Module) string { return Print(m.Op()) }
