// Package lint implements cwlint, the repo-specific static checks behind
// the performance and determinism claims the test suite can only spot-check
// dynamically (DESIGN.md §9.5):
//
//   - hotpathalloc: functions annotated //cwlint:hotpath — the simulator
//     dispatch loops and the serving fast paths — must not contain
//     allocation-inducing constructs (make/new, fmt calls off the error
//     exit, closures, defer, go, composite literals). The zero-alloc
//     benchmarks verify steady state on one workload; the lint pins the
//     property across every code path, including ones benchmarks miss.
//   - mapiter: output must not be produced while ranging over a map —
//     iteration order would leak into reports, breaking the byte-identical
//     reproducibility contract. Collect and sort keys first.
//
// A finding on a line carrying (or directly following) a //cwlint:ignore
// comment is suppressed; the comment should say why.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Finding is one rule violation.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Analyzer, f.Message)
}

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(p *Package) []Finding
}

// Analyzers lists every registered check, in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{hotpathAlloc, mapIter}
}

// Lint runs every analyzer over the package, dropping findings suppressed
// by //cwlint:ignore and sorting the remainder by position.
func Lint(p *Package) []Finding {
	var out []Finding
	for _, a := range Analyzers() {
		for _, f := range a.Run(p) {
			if p.suppressed(f.Pos) {
				continue
			}
			out = append(out, f)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out
}

// directive scans a comment group for a //cwlint:<name> marker.
func directive(doc *ast.CommentGroup, name string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.HasPrefix(c.Text, "//cwlint:"+name) {
			return true
		}
	}
	return false
}

// suppressed reports whether the finding's line carries (or directly
// follows) a //cwlint:ignore comment.
func (p *Package) suppressed(pos token.Position) bool {
	lines := p.ignore[pos.Filename]
	return lines[pos.Line] || lines[pos.Line-1]
}

// buildIgnoreIndex records, per file, the lines on which a //cwlint:ignore
// comment appears.
func (p *Package) buildIgnoreIndex() {
	p.ignore = make(map[string]map[int]bool)
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, "//cwlint:ignore") {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				lines := p.ignore[pos.Filename]
				if lines == nil {
					lines = make(map[int]bool)
					p.ignore[pos.Filename] = lines
				}
				lines[pos.Line] = true
			}
		}
	}
}
