// Package ctxflow flags context.Background() and context.TODO() in
// library code.
//
// Invariant (PR 5): every deep walk and every wire call must honour
// the caller's cancellation, so a context minted mid-path silently
// detaches everything below it from the caller — the exact bug where
// remote.go's lazy chunk fetch kept reading after the client hung up.
// Library code is presumed reachable from a ctx-bearing entry point;
// the few places that legitimately own a root context (daemon mains
// are exempt as package main; connection roots, bench harness drivers
// and the few ctx-less convenience methods) carry //forkvet:allow
// ctxflow with a reason.
package ctxflow

import (
	"go/ast"
	"go/types"
	"strings"

	"forkbase/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc:  "flags context.Background()/TODO() in non-main, non-test code",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if pass.Pkg.Name() == "main" {
		return nil
	}
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		// ctxDepth counts enclosing functions that receive a
		// context.Context; inside one, a fresh root context is not just
		// suspect but provably discards the caller's.
		var walk func(n ast.Node, ctxDepth int)
		walk = func(n ast.Node, ctxDepth int) {
			switch n := n.(type) {
			case *ast.FuncDecl:
				d := ctxDepth
				if n.Type != nil && hasCtxParam(pass, n.Type) {
					d++
				}
				if n.Body != nil {
					walk(n.Body, d)
				}
				return
			case *ast.FuncLit:
				d := ctxDepth
				if hasCtxParam(pass, n.Type) {
					d++
				}
				walk(n.Body, d)
				return
			case *ast.CallExpr:
				if name := rootCtxCall(pass, n); name != "" {
					if ctxDepth > 0 {
						pass.Reportf(n.Pos(), "context.%s() discards the ctx already in scope; thread the caller's context through (PR 5: walks and wire calls must honour cancellation)", name)
					} else {
						pass.Reportf(n.Pos(), "context.%s() creates a fresh root context in library code; accept a ctx from the caller (or annotate //forkvet:allow ctxflow with a reason)", name)
					}
				}
			}
			// Generic descent.
			ast.Inspect(n, func(c ast.Node) bool {
				if c == n || c == nil {
					return c == n
				}
				walk(c, ctxDepth)
				return false
			})
		}
		for _, decl := range f.Decls {
			walk(decl, 0)
		}
	}
	return nil
}

// rootCtxCall returns "Background" or "TODO" when call is
// context.Background()/context.TODO(), else "".
func rootCtxCall(pass *analysis.Pass, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
		return ""
	}
	if fn.Name() == "Background" || fn.Name() == "TODO" {
		return fn.Name()
	}
	return ""
}

// hasCtxParam reports whether a function type declares a
// context.Context parameter.
func hasCtxParam(pass *analysis.Pass, ft *ast.FuncType) bool {
	if ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		tv, ok := pass.TypesInfo.Types[field.Type]
		if !ok {
			continue
		}
		if isContext(tv.Type) {
			return true
		}
	}
	return false
}

func isContext(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}
