// Package chunkalias flags reuse of a []byte buffer after it has been
// handed to chunk.New (or to chunk.DecodeStored, which keeps its
// argument the same way), and a call of chunk.DecodeStored outside a
// chunk store.
//
// Invariant (PR 6): chunk.New takes ownership of its payload slice —
// the cid is the SHA-256 of exactly those bytes, and both ends of the
// chunk-sync protocol re-verify payloads against their cid on
// admission. A caller that writes into the buffer afterwards (element
// assignment, copy-into, append-into) silently corrupts a chunk that
// may already sit in the store, the cache, or a wire frame. The safe
// pattern — used by the POS-tree builders — is to hand over a fresh
// copy and keep recycling the scratch buffer.
//
// chunk.DecodeStored takes the chunk's id on trust instead of hashing
// the bytes: it is for a store serving a record it indexed itself, and
// only package store may call it. Anywhere else it would mint a chunk
// whose id nothing checked.
//
// The analysis is intra-procedural and tracks the variable passed as
// the payload argument: a plain reassignment to a fresh value releases
// it; re-slicing (buf = buf[:0]) keeps it tracked, since the backing
// array is still the chunk's.
package chunkalias

import (
	"go/ast"
	"go/token"
	"go/types"

	"forkbase/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "chunkalias",
	Doc:  "flags mutation of a []byte payload after it was handed to chunk.New",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		var roots []*ast.BlockStmt
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					roots = append(roots, n.Body)
				}
			case *ast.FuncLit:
				roots = append(roots, n.Body)
			}
			return true
		})
		for _, body := range roots {
			s := &scan{pass: pass, handed: make(map[types.Object]int)}
			s.walk(body)
		}
	}
	return nil
}

type scan struct {
	pass *analysis.Pass
	// handed maps a buffer variable to the line where chunk.New took
	// ownership of it.
	handed map[types.Object]int
}

// walk visits n's statements in source order (pre-order DFS), skipping
// nested function literals — they are separate roots.
func (s *scan) walk(n ast.Node) {
	ast.Inspect(n, func(c ast.Node) bool {
		switch c := c.(type) {
		case *ast.FuncLit:
			return false // nested literals are their own roots
		case *ast.AssignStmt:
			s.assign(c)
		case *ast.CallExpr:
			s.call(c)
		}
		return true
	})
}

func (s *scan) assign(as *ast.AssignStmt) {
	for i, lhs := range as.Lhs {
		switch l := lhs.(type) {
		case *ast.IndexExpr:
			if obj := s.trackedObj(l.X); obj != nil {
				s.report(l.Pos(), obj, "element write")
			}
		case *ast.Ident:
			obj := s.pass.TypesInfo.ObjectOf(l)
			if obj == nil {
				continue
			}
			if _, ok := s.handed[obj]; !ok {
				continue
			}
			// Reassignment: a fresh value releases the buffer; a
			// re-slice of itself still aliases the chunk's bytes.
			if i < len(as.Rhs) && aliasesSelf(as.Rhs[i], obj, s.pass) {
				continue
			}
			if len(as.Lhs) == len(as.Rhs) {
				delete(s.handed, obj)
			}
		}
	}
}

// handoffArg maps the chunk functions that keep a caller's buffer to
// the index of that argument.
var handoffArg = map[string]int{"New": 1, "DecodeStored": 0}

// trustedCtor is the constructor that takes a chunk's id on trust, and
// storePkg the one package allowed to call it.
const (
	trustedCtor = "DecodeStored"
	storePkg    = "store"
)

func (s *scan) call(call *ast.CallExpr) {
	// Builtin mutators.
	if id, ok := call.Fun.(*ast.Ident); ok {
		switch id.Name {
		case "copy":
			if len(call.Args) == 2 {
				if obj := s.trackedObj(call.Args[0]); obj != nil {
					s.report(call.Pos(), obj, "copy into")
				}
			}
			return
		case "append":
			if len(call.Args) > 0 {
				arg := call.Args[0]
				if se, ok := arg.(*ast.SliceExpr); ok {
					arg = se.X
				}
				if obj := s.trackedObj(arg); obj != nil {
					s.report(call.Pos(), obj, "append into")
				}
			}
			return
		}
	}
	// Handoff: chunk.New(type, payload) and chunk.DecodeStored(buf, id).
	fn := calleeFunc(s.pass, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Name() != "chunk" {
		return
	}
	if fn.Name() == trustedCtor && s.pass.Pkg.Name() != storePkg {
		s.pass.Reportf(call.Pos(), "chunk.%s outside package %s: it takes the chunk's id on trust, which only a store serving a record it indexed itself may do; use chunk.Decode, which hashes", trustedCtor, storePkg)
	}
	i, ok := handoffArg[fn.Name()]
	if !ok || len(call.Args) <= i {
		return
	}
	if id, ok := call.Args[i].(*ast.Ident); ok {
		if obj := s.pass.TypesInfo.ObjectOf(id); obj != nil && isByteSlice(obj.Type()) {
			s.handed[obj] = s.pass.Fset.Position(call.Pos()).Line
		}
	}
}

// trackedObj resolves e to a handed-off buffer variable, or nil.
func (s *scan) trackedObj(e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	obj := s.pass.TypesInfo.ObjectOf(id)
	if obj == nil {
		return nil
	}
	if _, ok := s.handed[obj]; !ok {
		return nil
	}
	return obj
}

// aliasesSelf reports whether rhs still aliases obj's backing array
// (a slice expression over obj, possibly through append(obj[:k],...)).
func aliasesSelf(rhs ast.Expr, obj types.Object, pass *analysis.Pass) bool {
	found := false
	ast.Inspect(rhs, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == obj {
			found = true
		}
		return !found
	})
	return found
}

func (s *scan) report(pos token.Pos, obj types.Object, what string) {
	line := s.handed[obj]
	s.pass.Reportf(pos, "%s %q after chunk.New took ownership of it (line %d): the cid is computed from these bytes, so later writes corrupt an admitted chunk (PR 6); hand over a fresh copy instead", what, obj.Name(), line)
}

func isByteSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		fn, _ := pass.TypesInfo.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}
