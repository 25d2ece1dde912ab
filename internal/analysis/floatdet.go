package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// newFloatDet builds the floatdet rule. Float addition is not associative,
// so a float accumulation whose term order varies between runs yields
// different sums — which breaks the seed-reproducibility contract the
// solver scores depend on. maporder already flags accumulation directly
// inside a range over a map; floatdet covers the two orderings maporder
// cannot see:
//
//   - map-derived order, flow-sensitively: a slice filled by appending
//     inside a range over a map inherits the map's random order. Ranging
//     over it later and compound-assigning floats is nondeterministic —
//     unless a sort.*/slices.Sort* call re-orders the slice on every path
//     in between (that kill is what needs the CFG; maporder's sorted-check
//     is flow-insensitive).
//
//   - goroutine order: a compound float assignment inside a `go` closure
//     targeting a variable declared outside it accumulates in scheduling
//     order, mutex or not. Accumulate per-goroutine and reduce in a fixed
//     order instead.
func newFloatDet() *Rule {
	return &Rule{
		Name: "floatdet",
		Doc: "float accumulation in map-derived or goroutine order is " +
			"nondeterministic; sort first or reduce in a fixed order",
		// Everywhere floats are summed into scores: the solver stack plus
		// the platform's round loop.
		Scope: []string{
			"internal/assign",
			"internal/partition",
			"internal/model",
			"internal/coop",
			"internal/incremental",
			"internal/server",
		},
		Check: checkFloatDet,
	}
}

func checkFloatDet(p *Package, rep *Reporter) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkMapOrderedAccum(p, rep, fd.Body)
			checkGoroutineAccum(p, rep, fd.Body)
		}
	}
}

// floatDetFact tracks which slice variables currently hold map-ordered
// contents.
type floatDetFact map[types.Object]bool

// checkMapOrderedAccum runs the flow-sensitive half over one body.
func checkMapOrderedAccum(p *Package, rep *Reporter, body *ast.BlockStmt) {
	spans := mapRangeSpans(p, body)
	if len(spans) == 0 {
		return
	}
	g := BuildCFG(body)
	seen := map[token.Pos]bool{} // transfer reruns to fixpoint; report once
	transfer := func(b *Block, in floatDetFact) floatDetFact {
		st := make(floatDetFact, len(in))
		for k := range in {
			st[k] = true
		}
		if rs, ok := b.Ctrl.(*ast.RangeStmt); ok {
			if obj := identObj(p, ast.Unparen(rs.X)); obj != nil && st[obj] {
				reportFloatAccum(p, rep, rs, obj, seen)
			}
		}
		for _, n := range b.Nodes {
			floatDetNode(p, n, spans, st)
		}
		return st
	}
	SolveForward(g, FlowProblem[floatDetFact]{
		Boundary: func() floatDetFact { return floatDetFact{} },
		Transfer: transfer,
		Join: func(a, b floatDetFact) floatDetFact {
			out := make(floatDetFact, len(a)+len(b))
			for k := range a {
				out[k] = true
			}
			for k := range b {
				out[k] = true
			}
			return out
		},
		Equal: func(a, b floatDetFact) bool {
			if len(a) != len(b) {
				return false
			}
			for k := range a {
				if !b[k] {
					return false
				}
			}
			return true
		},
	})
}

// floatDetNode applies one statement's gen/kill effect to st.
func floatDetNode(p *Package, n ast.Node, spans []*ast.RangeStmt, st floatDetFact) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		for i, lhs := range n.Lhs {
			obj := identObj(p, ast.Unparen(lhs))
			if obj == nil || i >= len(n.Rhs) {
				continue
			}
			rhs := ast.Unparen(n.Rhs[i])
			// x = append(x, ...) inside a range over a map, where x
			// outlives that range: x inherits map order.
			if call, ok := rhs.(*ast.CallExpr); ok && isBuiltinCall(p, call, "append") {
				if span := enclosingMapRange(spans, n.Pos()); span != nil && obj.Pos() < span.Pos() {
					st[obj] = true
					continue
				}
				// append outside a map range keeps whatever order the
				// operands had.
				tainted := false
				for _, arg := range call.Args {
					if o := identObj(p, ast.Unparen(arg)); o != nil && st[o] {
						tainted = true
					}
				}
				if tainted {
					st[obj] = true
				} else {
					delete(st, obj)
				}
				continue
			}
			// Copies propagate; any other reassignment resets the slice.
			if o := identObj(p, rhs); o != nil && st[o] {
				st[obj] = true
			} else {
				delete(st, obj)
			}
		}
	case *ast.ExprStmt:
		if call, ok := n.X.(*ast.CallExpr); ok {
			if obj := sortedArg(p, call); obj != nil {
				delete(st, obj) // sorted: order is canonical again
			}
		}
	}
}

// reportFloatAccum flags float compound assignments inside a range over a
// map-ordered slice when the target outlives the loop.
func reportFloatAccum(p *Package, rep *Reporter, rs *ast.RangeStmt, slice types.Object, seen map[token.Pos]bool) {
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || !isCompoundAssign(as.Tok) || seen[as.Pos()] {
			return true
		}
		for _, lhs := range as.Lhs {
			if !isFloatType(p.Info.TypeOf(lhs)) {
				continue
			}
			root := rootIdentObj(p, lhs)
			if root == nil || (root.Pos() >= rs.Pos() && root.Pos() < rs.End()) {
				continue // loop-local accumulators die with the loop
			}
			seen[as.Pos()] = true
			rep.Report(as, "float accumulation into %s follows map iteration order via %s; sort %s before ranging",
				root.Name(), slice.Name(), slice.Name())
		}
		return true
	})
}

// checkGoroutineAccum flags float compound assignments inside go closures
// that target variables captured from the enclosing function.
func checkGoroutineAccum(p *Package, rep *Reporter, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		gs, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		fl, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit)
		if !ok {
			return true
		}
		ast.Inspect(fl.Body, func(m ast.Node) bool {
			as, ok := m.(*ast.AssignStmt)
			if !ok || !isCompoundAssign(as.Tok) {
				return true
			}
			for _, lhs := range as.Lhs {
				if !isFloatType(p.Info.TypeOf(lhs)) {
					continue
				}
				root := rootIdentObj(p, lhs)
				if root == nil || (root.Pos() >= fl.Body.Pos() && root.Pos() < fl.Body.End()) {
					continue // goroutine-local accumulator
				}
				rep.Report(as, "float accumulation into %s from a goroutine depends on scheduling order; accumulate per-goroutine and reduce in a fixed order", root.Name())
			}
			return true
		})
		return true
	})
}

// mapRangeSpans collects every range-over-map statement in the body.
func mapRangeSpans(p *Package, body *ast.BlockStmt) []*ast.RangeStmt {
	var spans []*ast.RangeStmt
	ast.Inspect(body, func(n ast.Node) bool {
		if rs, ok := n.(*ast.RangeStmt); ok {
			if t := p.Info.TypeOf(rs.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					spans = append(spans, rs)
				}
			}
		}
		return true
	})
	return spans
}

// enclosingMapRange returns the innermost map-range whose body spans pos.
func enclosingMapRange(spans []*ast.RangeStmt, pos token.Pos) *ast.RangeStmt {
	var best *ast.RangeStmt
	for _, rs := range spans {
		if pos >= rs.Body.Pos() && pos < rs.Body.End() {
			if best == nil || rs.Body.Pos() > best.Body.Pos() {
				best = rs
			}
		}
	}
	return best
}

// sortedArg returns the slice variable a sort.*/slices.Sort* call
// re-orders, or nil.
func sortedArg(p *Package, call *ast.CallExpr) types.Object {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || len(call.Args) == 0 {
		return nil
	}
	pkgID, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return nil
	}
	pn, ok := p.Info.Uses[pkgID].(*types.PkgName)
	if !ok {
		return nil
	}
	switch pn.Imported().Path() {
	case "sort", "slices":
	default:
		return nil
	}
	switch sel.Sel.Name {
	case "Sort", "SortFunc", "SortStableFunc", "Slice", "SliceStable",
		"Float64s", "Ints", "Strings", "Stable":
		return identObj(p, ast.Unparen(call.Args[0]))
	}
	return nil
}

// isCompoundAssign reports +=, -=, *=, /= — the accumulation tokens.
func isCompoundAssign(tok token.Token) bool {
	switch tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		return true
	}
	return false
}

// isFloatType reports whether t is a floating-point basic type.
func isFloatType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
