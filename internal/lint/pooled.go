package lint

// pooledreturn: trace buffers ([]Segment) are reused across simulations
// (a pooled sim.Machine keeps its Trace and truncates it on the next Run),
// while results holding traces are cached and shared indefinitely.
// Assigning a machine's slice straight into a Trace field aliases memory
// the next run on that machine overwrites — the canonical bug is
// a cached result whose timeline silently mutates under it. The correct
// idiom copies: res.Trace = append([]sim.Segment(nil), mc.Trace...).
// The check flags `<expr>.Trace = <ident or selector>` where the right-hand
// side is a []Segment value (nil and append/call results are ownership
// transfers, not aliases, and slicing a field in place, Trace = Trace[:0],
// reuses the same owner).

import (
	"go/ast"
	"go/types"
)

var pooledReturn = &Analyzer{
	Name: "pooledreturn",
	Doc:  "forbid aliasing a pooled []Segment trace buffer into a Trace field",
	Run:  runPooledReturn,
}

func runPooledReturn(p *Package) []Finding {
	var out []Finding
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, lhs := range as.Lhs {
				if i >= len(as.Rhs) {
					break
				}
				sel, ok := lhs.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "Trace" {
					continue
				}
				rhs := as.Rhs[i]
				if !plainRef(rhs) || !isSegmentSlice(p, rhs) {
					continue
				}
				out = append(out, Finding{
					Pos:      p.Fset.Position(as.Pos()),
					Analyzer: "pooledreturn",
					Message:  "aliases a pooled trace buffer into .Trace; copy it: append([]Segment(nil), x...)",
				})
			}
			return true
		})
	}
	return out
}

// plainRef reports whether the expression is a bare identifier or selector
// chain — the aliasing forms. Calls (append, pool Get) transfer ownership
// and nil carries nothing.
func plainRef(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name != "nil"
	case *ast.SelectorExpr:
		return true
	case *ast.ParenExpr:
		return plainRef(e.X)
	}
	return false
}

// isSegmentSlice reports whether the expression's static type is a slice of
// a named type called Segment (sim.Segment in-tree; matched by name so the
// fixture packages need not import the simulator).
func isSegmentSlice(p *Package, e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	sl, ok := tv.Type.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	named, ok := sl.Elem().(*types.Named)
	return ok && named.Obj().Name() == "Segment"
}
