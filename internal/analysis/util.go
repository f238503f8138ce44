package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// walkStack traverses every file of the pass, invoking fn with each
// node and the stack of its ancestors (outermost first, not including
// the node itself).
func walkStack(files []*ast.File, fn func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			fn(n, stack)
			stack = append(stack, n)
			return true
		})
	}
}

// pkgFunc reports whether call invokes a package-level function of the
// package with import path pkgPath, returning its name. It resolves the
// qualifier through the type info, so aliased imports are handled.
func pkgFunc(info *types.Info, call *ast.CallExpr, pkgPath string) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok || pn.Imported().Path() != pkgPath {
		return "", false
	}
	return sel.Sel.Name, true
}

// methodOf returns the called method's *types.Func when call is a
// method call, nil otherwise.
func methodOf(info *types.Info, call *ast.CallExpr) *types.Func {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	s, ok := info.Selections[sel]
	if !ok {
		return nil
	}
	fn, _ := s.Obj().(*types.Func)
	return fn
}

// rootIdent returns the leftmost identifier of a selector/index/slice
// chain (x in x.f.g[i]), or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return v
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.SliceExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		default:
			return nil
		}
	}
}

// declaredWithin reports whether the object behind id was declared
// inside the node span [from.Pos(), from.End()).
func declaredWithin(info *types.Info, id *ast.Ident, from ast.Node) bool {
	obj := info.ObjectOf(id)
	if obj == nil {
		return false
	}
	return obj.Pos() >= from.Pos() && obj.Pos() < from.End()
}

// namedTypeName returns the name of t's core named type after stripping
// pointers, or "".
func namedTypeName(t types.Type) string {
	if t == nil {
		return ""
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// protocolPackage reports whether path is one of the protocol packages
// whose determinism the nodeterminism analyzer guards. Matching is on
// path segments relative to any module prefix, so synthetic testdata
// paths like td/internal/core/x qualify too.
//
// internal/serve is protocol: its per-phase trigger decisions must be
// rank-identical, exactly like the balancer underneath.
//
// internal/comm/wire is carved out: it sits below the protocol — dial
// backoff, RTT measurement and write deadlines legitimately read the
// wall clock, and none of that state feeds a protocol decision (the
// cross-transport identity test is the enforcement: results must be
// bit-identical to the clock-free in-memory transport).
func protocolPackage(path string) bool {
	if matchesSegmentPath(path, "internal/comm/wire") {
		return false
	}
	for _, p := range []string{
		"internal/core",
		"internal/lb",
		"internal/amt",
		"internal/comm",
		"internal/termination",
		"internal/serve",
	} {
		if matchesSegmentPath(path, p) {
			return true
		}
	}
	return false
}

// matchesSegmentPath reports whether p occurs in path on segment
// boundaries: preceded by start-of-string or '/', followed by
// end-of-string or '/'.
func matchesSegmentPath(path, p string) bool {
	for i := 0; ; i++ {
		j := strings.Index(path[i:], p)
		if j < 0 {
			return false
		}
		i += j
		if (i == 0 || path[i-1] == '/') &&
			(i+len(p) == len(path) || path[i+len(p)] == '/') {
			return true
		}
	}
}

// sendMethodNames are the method names the maporder analyzer treats as
// message sends: the transport's and the runtime's outbound calls.
var sendMethodNames = map[string]bool{
	"Send":       true,
	"SendObject": true,
	"Broadcast":  true,
}

// isSendCall reports whether n is a message send: a channel send
// statement or a call to a send-named method.
func isSendCall(info *types.Info, n ast.Node) bool {
	switch v := n.(type) {
	case *ast.SendStmt:
		return true
	case *ast.CallExpr:
		if sel, ok := v.Fun.(*ast.SelectorExpr); ok && sendMethodNames[sel.Sel.Name] {
			// Method call (not a package-qualified function).
			if id, ok := sel.X.(*ast.Ident); ok {
				if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
					return false
				}
			}
			return true
		}
	}
	return false
}
