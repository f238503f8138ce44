package analysis

import (
	"go/ast"
	"go/types"
)

// collectiveNames are the methods of the runtime's amt.Context that
// every rank of a job must call in the identical order: the tree
// collectives and their entry points, and Watched, whose first call on
// a socket transport is one. A call to any of these is a
// synchronization point — a rank that skips one deadlocks the job.
var collectiveNames = map[string]bool{
	"Barrier":        true,
	"AllReduce":      true,
	"AllReduceVec":   true,
	"AllReduceMixed": true,
	"AllGather":      true,
	"Broadcast":      true,
	"Watched":        true,
	"treeCollective": true,
}

// rankLocalSources are the zero-argument amt.Context accessors whose
// results differ between ranks of the same job (or may be nil on some
// ranks and not others): rank identity and the per-process
// observability attachments. Values derived from these must never steer
// a collective call.
var rankLocalSources = map[string]bool{
	"Rank":    true,
	"Stream":  true,
	"Tracer":  true,
	"Metrics": true,
}

// isCollectiveCall reports whether call invokes a collective: a method
// named in collectiveNames on a receiver whose named type is Context
// (the runtime context; fixture packages model it with a local stub of
// the same name). Collection.Broadcast is deliberately excluded — it is
// a point-to-point fan-out, not a synchronization point.
func isCollectiveCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !collectiveNames[sel.Sel.Name] {
		return false
	}
	fn := methodOf(info, call)
	if fn == nil {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	return namedTypeName(recv.Type()) == "Context"
}

// isRankLocalSource reports whether call reads rank-local state: a
// zero-argument method named in rankLocalSources.
func isRankLocalSource(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !rankLocalSources[sel.Sel.Name] || len(call.Args) != 0 {
		return false
	}
	// Must be a method call, not a package-qualified function.
	return methodOf(info, call) != nil
}

// funcSummary is the per-function digest the intra-package call graph
// exposes to analyzers, so collectivesym and seedflow see one call
// level deep without a whole-program analysis:
//
//   - collective: the first collective call in the body, if any. A call
//     to a function with a non-nil collective is itself a
//     synchronization point for the caller.
//   - rankReturn: some return statement's value reads a rank-local
//     source directly, so the function's result carries rank taint to
//     its callers.
//   - seedParams: parameter indices that flow into the construction of
//     a random source (rand.NewSource / NewPCG / a *Source composite
//     literal), directly or through another function of the same
//     package. Call sites must feed these from a plumbed seed.
type funcSummary struct {
	collective *ast.CallExpr
	rankReturn bool
	seedParams map[int]bool
}

// summaries computes (and caches on the package) the funcSummary of
// every function declared in pkg, keyed by its *types.Func. Seed-flow
// marks are propagated to a fixed point within the package, so a
// wrapper like NewEngine's -> SeededRNG -> composite literal resolves.
func summaries(pkg *Package) map[*types.Func]*funcSummary {
	if pkg.funcSummaries != nil {
		return pkg.funcSummaries
	}
	info := pkg.Info
	sums := make(map[*types.Func]*funcSummary)
	decls := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := info.Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			decls[obj] = fd
			sums[obj] = &funcSummary{seedParams: make(map[int]bool)}
		}
	}
	for obj, fd := range decls {
		s := sums[obj]
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if s.collective == nil && isCollectiveCall(info, call) {
				s.collective = call
			}
			return true
		})
		for _, ret := range returnStmts(fd.Body) {
			for _, res := range ret.Results {
				if exprReadsRankLocal(info, res) {
					s.rankReturn = true
				}
			}
		}
	}
	// Seed-flow fixed point: a parameter is a seed parameter when it
	// appears inside a direct source-construction expression, or is
	// passed to a seed parameter of another function in this package.
	for changed := true; changed; {
		changed = false
		for obj, fd := range decls {
			s := sums[obj]
			params := paramObjects(info, fd)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				for _, arg := range seedSinkArgs(info, n, sums) {
					for idx, p := range params {
						// Only numeric parameters count as seed plumbing:
						// a config struct mentioned in a seed expression
						// (cfg.Seed) does not make the whole struct a seed.
						if p == nil || !isNumeric(p.Type()) {
							continue
						}
						if !s.seedParams[idx] && exprMentionsObject(info, arg, p) {
							s.seedParams[idx] = true
							changed = true
						}
					}
				}
				return true
			})
		}
	}
	pkg.funcSummaries = sums
	return sums
}

// seedSinkArgs returns the argument expressions of n that must be
// seed-derived: the arguments of rand.NewSource / rand/v2 NewPCG /
// NewChaCha8, the field values of a composite literal whose type name
// contains "Source" (splitmixSource), and arguments in seed-parameter
// positions of a same-package call per sums.
func seedSinkArgs(info *types.Info, n ast.Node, sums map[*types.Func]*funcSummary) []ast.Expr {
	switch v := n.(type) {
	case *ast.CallExpr:
		for _, randPkg := range []string{"math/rand", "math/rand/v2"} {
			if name, ok := pkgFunc(info, v, randPkg); ok {
				switch name {
				case "NewSource", "NewPCG", "NewChaCha8":
					return v.Args
				}
			}
		}
		if callee := calleeFunc(info, v); callee != nil {
			if s := sums[callee]; s != nil && len(s.seedParams) > 0 {
				var args []ast.Expr
				for idx, arg := range v.Args {
					if s.seedParams[idx] {
						args = append(args, arg)
					}
				}
				return args
			}
		}
	case *ast.CompositeLit:
		if !sourceTypeName(namedTypeName(info.TypeOf(v))) {
			return nil
		}
		var args []ast.Expr
		for _, el := range v.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				args = append(args, kv.Value)
			} else {
				args = append(args, el)
			}
		}
		return args
	}
	return nil
}

// sourceTypeName reports whether a named type models a random source by
// naming convention (splitmixSource, Source, ...).
func sourceTypeName(name string) bool {
	return name != "" && (name == "Source" ||
		len(name) > 6 && name[len(name)-6:] == "Source" ||
		len(name) > 6 && name[len(name)-6:] == "source")
}

// calleeFunc resolves the called function or method object of call, or
// nil for builtins, function values and interface calls.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if fn := methodOf(info, call); fn != nil {
			return fn
		}
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// paramObjects returns the declared parameter objects of fd in order,
// flattening grouped parameters (a, b int64).
func paramObjects(info *types.Info, fd *ast.FuncDecl) []types.Object {
	var out []types.Object
	if fd.Type.Params == nil {
		return nil
	}
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			out = append(out, info.Defs[name])
		}
	}
	return out
}

// exprMentionsObject reports whether e contains an identifier resolving
// to obj.
func exprMentionsObject(info *types.Info, e ast.Expr, obj types.Object) bool {
	if obj == nil {
		return false
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.ObjectOf(id) == obj {
			found = true
		}
		return !found
	})
	return found
}

// exprReadsRankLocal reports whether e contains a direct rank-local
// source call (rc.Rank(), rc.Stream(), ...).
func exprReadsRankLocal(info *types.Info, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isRankLocalSource(info, call) {
			found = true
		}
		return !found
	})
	return found
}

// returnStmts collects every return statement of body, excluding those
// inside nested function literals.
func returnStmts(body *ast.BlockStmt) []*ast.ReturnStmt {
	var out []*ast.ReturnStmt
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			out = append(out, v)
		}
		return true
	})
	return out
}
