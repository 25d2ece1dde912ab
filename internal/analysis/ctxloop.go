package analysis

import (
	"go/ast"
	"go/types"
)

// newCtxLoop builds the ctxloop rule: every exported Solve entry point
// must accept a context.Context, and each of its outermost heavy loops —
// the candidate/augmenting loops that dominate solver runtime — must
// observe that context somewhere inside (a ctx.Err()/ctx.Done() poll, or
// passing ctx into the calls it makes). A loop is "heavy" when it calls a
// function or contains a nested loop; plain index arithmetic is exempt.
func newCtxLoop() *Rule {
	return &Rule{
		Name: "ctxloop",
		Doc: "exported Solve must take a context.Context and its heavy " +
			"loops must observe ctx cancellation",
		// internal/resilience is in scope so ladder rungs and the chaos
		// decorator can never ignore cancellation in their Solve paths;
		// internal/server so the platform round's solve paths stay cancellable;
		// internal/incremental so the engine's per-component Solve loop
		// stays reactive under a round budget; internal/scenario so the
		// counterfactual tracer's per-alternate Solve loop can be aborted
		// mid-round.
		Scope: []string{"internal/assign", "internal/resilience", "internal/server", "internal/incremental", "internal/scenario"},
		Check: checkCtxLoop,
	}
}

func checkCtxLoop(p *Package, rep *Reporter) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !fd.Name.IsExported() || fd.Name.Name != "Solve" {
				continue
			}
			ctxObj := contextParam(p, fd)
			if ctxObj == nil {
				rep.Report(fd.Name, "exported Solve must accept a context.Context")
				continue
			}
			checkLoops(p, rep, fd.Body.List, ctxObj)
		}
	}
}

// contextParam returns the object of the first parameter whose type is
// context.Context.
func contextParam(p *Package, fd *ast.FuncDecl) types.Object {
	for _, field := range fd.Type.Params.List {
		t := p.Info.TypeOf(field.Type)
		if t == nil || t.String() != "context.Context" {
			continue
		}
		for _, name := range field.Names {
			if o := p.Info.Defs[name]; o != nil {
				return o
			}
		}
	}
	return nil
}

// checkLoops walks statements flagging outermost heavy loops that never
// mention ctx. A compliant loop is not descended into: its interior is
// reactive to cancellation through the observed check.
func checkLoops(p *Package, rep *Reporter, stmts []ast.Stmt, ctx types.Object) {
	for _, st := range stmts {
		ast.Inspect(st, func(n ast.Node) bool {
			switch n.(type) {
			case *ast.ForStmt, *ast.RangeStmt:
				if mentionsObj(p, n, ctx) {
					return false // covered; nested loops cancel with it
				}
				if loopIsHeavy(p, n) {
					rep.Report(n, "loop does not observe ctx; poll ctx.Err() or pass ctx into the body")
				}
				return false
			}
			return true
		})
	}
}

// loopIsHeavy reports whether the loop performs real work per iteration:
// any non-builtin call (function, method, or func-valued variable) or a
// nested loop.
func loopIsHeavy(p *Package, loop ast.Node) bool {
	heavy := false
	ast.Inspect(loop, func(n ast.Node) bool {
		if heavy {
			return false
		}
		switch c := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			if n != loop {
				heavy = true
			}
		case *ast.CallExpr:
			if tv, ok := p.Info.Types[c.Fun]; ok && tv.IsType() {
				return true // conversion
			}
			if id, ok := ast.Unparen(c.Fun).(*ast.Ident); ok {
				if _, b := p.Info.Uses[id].(*types.Builtin); b {
					return true
				}
			}
			heavy = true
		}
		return !heavy
	})
	return heavy
}
