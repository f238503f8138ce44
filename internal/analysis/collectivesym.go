package analysis

import (
	"go/ast"
	"go/types"
)

// newCollectivesym flags collective calls (Barrier, AllReduce,
// AllReduceVec, AllReduceMixed, AllGather, Broadcast, Watched,
// treeCollective — the synchronization points of amt.Context) that are
// reachable only under a branch conditioned on rank-local state: the
// rank identity (rc.Rank()) or the per-process observability
// attachments (rc.Stream(), rc.Tracer(), rc.Metrics()), which may be nil
// on some ranks and not on others. In the SPMD model every rank must
// execute the identical collective sequence; a rank that skips one
// leaves the others blocked in the tree forever. PR 7 shipped exactly
// this bug — a frame-stream collective ran only on ranks with a stream
// attached. The fix is to branch on a fact the whole job agrees on, and
// to keep the rank-local attachment for the rank-local act:
//
//	watched := rc.Watched()               // job-wide: agreed once per runtime
//	if watched { migs = rc.AllReduce(...) }   // symmetric
//	if stream := rc.Stream(); stream != nil { // rank-local: publishing only
//		stream.Publish(frame)
//	}
//
// rc.Watched() is not a rank-local source, so a guard on it is clean —
// and since its first call may itself take the agreeing reduce, it is
// policed as a collective: calling it under a rank-local branch is
// flagged. The hand-rolled form of the same idiom is recognized too:
//
//	on := rc.Stream() != nil
//	on = rc.AllReduce(b2f(on), amt.ReduceMax) > 0
//	if on { ... }                             // now symmetric
//
// An assignment whose right-hand side contains a collective call
// launders its targets: the assigned value is, by construction, agreed
// across ranks. The check is intra-procedural with one level of
// call-graph depth: calling a same-package function that performs a
// collective, from under a tainted branch, is flagged too (the
// summaries come from callgraph.go). Taint tracking is source-order,
// last-write-wins.
//
// Scope: the whole module, cmd/* and examples/* included — any code
// driving the runtime can deadlock it. Function literals are analyzed
// with the taint state at their definition point (they typically run in
// place: rc.Epoch bodies, rt.Run bodies).
func newCollectivesym() *Analyzer {
	a := &Analyzer{
		Name: "collectivesym",
		Doc:  "flag collective calls guarded by rank-local state (rank identity, stream/tracer attachment)",
	}
	a.Run = func(pass *Pass) {
		sums := summaries(pass.Pkg)
		for _, f := range pass.Pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				s := &symScan{pass: pass, sums: sums, tainted: map[types.Object]bool{}}
				s.stmts(fd.Body.List)
			}
		}
	}
	return a
}

// symScan walks one function in source order, tracking which local
// variables carry rank-local taint and which enclosing branch
// conditions are tainted.
type symScan struct {
	pass *Pass
	sums map[*types.Func]*funcSummary
	// tainted marks variables whose current value derives from a
	// rank-local source. Assignment is last-write-wins; an assignment
	// whose RHS contains a collective call launders its targets.
	tainted map[types.Object]bool
	// conds is the stack of enclosing control conditions; reason is the
	// rendering of the tainted condition for the message.
	conds []condFrame
}

type condFrame struct {
	tainted bool
	reason  string
}

func (s *symScan) pushCond(tainted bool, reason string) {
	s.conds = append(s.conds, condFrame{tainted, reason})
}

func (s *symScan) popCond() { s.conds = s.conds[:len(s.conds)-1] }

// taintedCond returns the innermost tainted enclosing condition, if
// any.
func (s *symScan) taintedCond() (string, bool) {
	for i := len(s.conds) - 1; i >= 0; i-- {
		if s.conds[i].tainted {
			return s.conds[i].reason, true
		}
	}
	return "", false
}

// taintedExpr reports whether e reads rank-local state: a direct
// source call (rc.Rank()), a tainted variable, or a same-package call
// whose summary says its result derives from a rank-local source.
func (s *symScan) taintedExpr(e ast.Expr) bool {
	if e == nil {
		return false
	}
	info := s.pass.Pkg.Info
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		switch v := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.Ident:
			if obj := info.ObjectOf(v); obj != nil && s.tainted[obj] {
				found = true
			}
		case *ast.CallExpr:
			if isRankLocalSource(info, v) {
				found = true
				return false
			}
			if callee := calleeFunc(info, v); callee != nil {
				if sum := s.sums[callee]; sum != nil && sum.rankReturn {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}

// containsCollective reports whether e contains a collective call or a
// same-package call to a function that performs one, returning the
// offending call and a description.
func (s *symScan) containsCollective(e ast.Expr) (*ast.CallExpr, string) {
	info := s.pass.Pkg.Info
	var hit *ast.CallExpr
	var desc string
	ast.Inspect(e, func(n ast.Node) bool {
		if hit != nil {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isCollectiveCall(info, call) {
			hit = call
			desc = "collective " + call.Fun.(*ast.SelectorExpr).Sel.Name
			return false
		}
		if callee := calleeFunc(info, call); callee != nil {
			if sum := s.sums[callee]; sum != nil && sum.collective != nil {
				hit = call
				inner := "a collective"
				if sel, ok := sum.collective.Fun.(*ast.SelectorExpr); ok {
					inner = "collective " + sel.Sel.Name
				}
				desc = "call to " + callee.Name() + ", which performs " + inner
				return false
			}
		}
		return true
	})
	return hit, desc
}

// checkExpr reports collective calls in e when an enclosing branch
// condition is tainted, then walks nested function literals (which
// inherit the current taint state — Epoch bodies and rt.Run closures
// execute in place).
func (s *symScan) checkExpr(e ast.Expr) {
	if e == nil {
		return
	}
	if reason, ok := s.taintedCond(); ok {
		if call, desc := s.containsCollective(e); call != nil {
			s.pass.Reportf(call.Pos(),
				"%s is guarded by rank-local condition %s: every rank must reach every collective (agree first via AllReduce, then branch)",
				desc, reason)
		}
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			s.stmts(lit.Body.List)
			return false
		}
		return true
	})
}

func (s *symScan) stmts(list []ast.Stmt) {
	for _, st := range list {
		s.stmt(st)
	}
}

func (s *symScan) stmt(st ast.Stmt) {
	switch v := st.(type) {
	case *ast.ExprStmt:
		s.checkExpr(v.X)
	case *ast.AssignStmt:
		s.assign(v)
	case *ast.DeclStmt:
		if gd, ok := v.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				taint := false
				for _, val := range vs.Values {
					s.checkExpr(val)
					if s.taintedExpr(val) {
						taint = true
					}
				}
				for _, name := range vs.Names {
					if obj := s.pass.Pkg.Info.Defs[name]; obj != nil {
						s.tainted[obj] = taint
					}
				}
			}
		}
	case *ast.IfStmt:
		if v.Init != nil {
			s.stmt(v.Init)
		}
		s.checkExpr(v.Cond)
		t := s.taintedExpr(v.Cond)
		s.pushCond(t, types.ExprString(v.Cond))
		s.stmts(v.Body.List)
		if v.Else != nil {
			s.stmt(v.Else)
		}
		s.popCond()
	case *ast.BlockStmt:
		s.stmts(v.List)
	case *ast.ForStmt:
		if v.Init != nil {
			s.stmt(v.Init)
		}
		s.checkExpr(v.Cond)
		t := s.taintedExpr(v.Cond)
		s.pushCond(t, types.ExprString(v.Cond))
		s.stmts(v.Body.List)
		if v.Post != nil {
			s.stmt(v.Post)
		}
		s.popCond()
	case *ast.RangeStmt:
		s.checkExpr(v.X)
		t := s.taintedExpr(v.X)
		s.pushCond(t, types.ExprString(v.X))
		s.stmts(v.Body.List)
		s.popCond()
	case *ast.SwitchStmt:
		if v.Init != nil {
			s.stmt(v.Init)
		}
		s.checkExpr(v.Tag)
		t := s.taintedExpr(v.Tag)
		reason := ""
		if v.Tag != nil {
			reason = types.ExprString(v.Tag)
		}
		for _, c := range v.Body.List {
			cc, ok := c.(*ast.CaseClause)
			if !ok {
				continue
			}
			ct := t
			for _, ce := range cc.List {
				s.checkExpr(ce)
				if s.taintedExpr(ce) {
					ct = true
					reason = types.ExprString(ce)
				}
			}
			s.pushCond(ct, reason)
			s.stmts(cc.Body)
			s.popCond()
		}
	case *ast.TypeSwitchStmt:
		if v.Init != nil {
			s.stmt(v.Init)
		}
		s.stmt(v.Assign)
		for _, c := range v.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				s.stmts(cc.Body)
			}
		}
	case *ast.SelectStmt:
		for _, c := range v.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				if cc.Comm != nil {
					s.stmt(cc.Comm)
				}
				s.stmts(cc.Body)
			}
		}
	case *ast.GoStmt:
		s.checkExpr(v.Call)
	case *ast.DeferStmt:
		s.checkExpr(v.Call)
	case *ast.ReturnStmt:
		for _, e := range v.Results {
			s.checkExpr(e)
		}
	case *ast.SendStmt:
		s.checkExpr(v.Chan)
		s.checkExpr(v.Value)
	case *ast.IncDecStmt:
		s.checkExpr(v.X)
	case *ast.LabeledStmt:
		s.stmt(v.Stmt)
	}
}

// assign updates taint for an assignment: a RHS containing a collective
// call launders every target (the value is agreed by construction), a
// rank-local RHS taints them, anything else clears them.
func (s *symScan) assign(as *ast.AssignStmt) {
	info := s.pass.Pkg.Info
	laundered := false
	tainted := false
	for _, rhs := range as.Rhs {
		s.checkExpr(rhs)
		if call, _ := s.containsCollective(rhs); call != nil {
			laundered = true
		}
		if s.taintedExpr(rhs) {
			tainted = true
		}
	}
	for _, lhs := range as.Lhs {
		s.checkExpr(lhs)
		id, ok := lhs.(*ast.Ident)
		if !ok {
			continue
		}
		obj := info.ObjectOf(id)
		if obj == nil {
			continue
		}
		switch {
		case laundered:
			delete(s.tainted, obj)
		case tainted:
			s.tainted[obj] = true
		default:
			delete(s.tainted, obj)
		}
	}
}
