package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// payloadBands maps a registering package to the PayloadID band it
// owns (codec.go: the runtime owns 1–31, balancer layers 32–63,
// applications ≥ 64). Band assignment is what keeps independently
// developed layers from colliding on ids.
func payloadBand(pkgPath string) (lo, hi int, name string) {
	switch {
	case matchesSegmentPath(pkgPath, "internal/amt"):
		return 1, 31, "runtime band 1–31"
	case matchesSegmentPath(pkgPath, "internal/lb"):
		return 32, 63, "balancer band 32–63"
	default:
		return 64, 1<<16 - 1, "application band ≥64"
	}
}

// codecValueMethods are the Encoder/Decoder methods that move payload
// data. Everything else on the codec types (Err, Remaining, Failf,
// Reset, Bytes) is bookkeeping and does not shape the wire format.
var codecValueMethods = map[string]bool{
	"U8": true, "U16": true, "U32": true, "U64": true,
	"I32": true, "I64": true, "F64": true, "Bool": true,
	"F64Slice": true, "Rows": true, "Any": true,
}

// payloadReg is one RegisterPayload call observed anywhere in the
// module.
type payloadReg struct {
	id       int
	typeName string
	pkgPath  string
	pos      token.Pos
}

// payloadSend is one runtime send whose payload type is statically
// known.
type payloadSend struct {
	typeName string
	pos      token.Pos
}

// newPayloadcodec checks the wire-codec registry against the module's
// actual sends, module-wide (the registration usually lives in a
// different package than the send):
//
//   - every type passed as the data argument of Context.Send,
//     Context.SendObject, Collection.Send or Collection.Broadcast must
//     have a wire.RegisterPayload codec somewhere in the module —
//     otherwise the first run on a socket transport panics where the
//     in-memory transport silently worked;
//   - the registered id must sit in the registering package's band
//     (runtime 1–31, balancer 32–63, applications ≥64) and no id may be
//     registered twice;
//   - the encoder and decoder of one registration must move fields in
//     the same order: the sequence of Encoder value-method calls must
//     equal the sequence of Decoder value-method calls (for bodies with
//     branches, consecutive duplicates collapse first, so a
//     length-or-sentinel prefix like InformMsg's nil encoding
//     compares correctly). Field order is the wire format; a mismatch
//     breaks the decode-success ⇒ re-encode fixpoint the fuzzers pin.
//
// Scope: the whole module. Sends whose data argument is statically an
// interface value (forwarding helpers like Collection.Send's own body)
// are skipped — the concrete sites feeding them are checked instead.
// comm.Message is the transport's own framing envelope, not a payload,
// and is exempt. The module-wide pairing means a single-package run
// (`lbvet ./examples/...`) may miss registrations living elsewhere;
// `make lint` always runs the full module.
func newPayloadcodec() *Analyzer {
	a := &Analyzer{
		Name: "payloadcodec",
		Doc:  "pair every runtime-sent type with a registered, band-correct, field-order-symmetric wire codec",
	}
	var regs []payloadReg
	var sends []payloadSend
	a.Run = func(pass *Pass) {
		info := pass.Pkg.Info
		walkStack(pass.Pkg.Files, func(n ast.Node, _ []ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			if isRegisterPayloadCall(info, call) && len(call.Args) == 3 {
				regs = append(regs, checkRegistration(pass, call)...)
				return
			}
			if send, ok := sentPayload(info, call); ok {
				sends = append(sends, send)
			}
		})
	}
	a.Finish = func(report func(pos token.Pos, format string, args ...any)) {
		registered := make(map[string]bool, len(regs))
		byID := make(map[int][]payloadReg)
		for _, r := range regs {
			registered[r.typeName] = true
			byID[r.id] = append(byID[r.id], r)
		}
		ids := make([]int, 0, len(byID))
		for id := range byID {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			rs := byID[id]
			if len(rs) > 1 {
				sort.Slice(rs, func(i, j int) bool { return rs[i].pos < rs[j].pos })
				for _, dup := range rs[1:] {
					report(dup.pos,
						"payload id %d registered twice (also for %s): ids are the wire contract and must be unique",
						id, rs[0].typeName)
				}
			}
		}
		for _, s := range sends {
			if !registered[s.typeName] {
				report(s.pos,
					"%s is sent through the runtime but has no wire.RegisterPayload codec: it cannot cross a socket transport", s.typeName)
			}
		}
	}
	return a
}

// isRegisterPayloadCall reports whether call is
// wire.RegisterPayload[T](id, enc, dec) or the facade's
// RegisterWirePayload, unwrapping an explicit instantiation.
func isRegisterPayloadCall(info *types.Info, call *ast.CallExpr) bool {
	fun := call.Fun
	switch v := fun.(type) {
	case *ast.IndexExpr:
		fun = v.X
	case *ast.IndexListExpr:
		fun = v.X
	}
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if sel.Sel.Name == "RegisterWirePayload" {
		return true
	}
	if sel.Sel.Name != "RegisterPayload" {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	return ok && strings.HasSuffix(pn.Imported().Path(), "internal/comm/wire")
}

// checkRegistration validates one RegisterPayload call in place (band,
// symmetry) and returns its registry record.
func checkRegistration(pass *Pass, call *ast.CallExpr) []payloadReg {
	info := pass.Pkg.Info
	// The payload type is the second parameter of the encoder argument —
	// robust whether or not the call is explicitly instantiated.
	encSig, _ := info.TypeOf(call.Args[1]).(*types.Signature)
	if encSig == nil || encSig.Params().Len() != 2 {
		return nil
	}
	payloadType := encSig.Params().At(1).Type()
	if _, isParam := payloadType.(*types.TypeParam); isParam {
		// The facade's generic passthrough, not a concrete registration.
		return nil
	}
	typeName := types.TypeString(payloadType, nil)

	reg := payloadReg{id: -1, typeName: typeName, pkgPath: pass.Pkg.Path, pos: call.Pos()}
	if tv, ok := info.Types[call.Args[0]]; ok && tv.Value != nil {
		if v, exact := constant.Int64Val(constant.ToInt(tv.Value)); exact {
			reg.id = int(v)
			lo, hi, band := payloadBand(pass.Pkg.Path)
			if reg.id < lo || reg.id > hi {
				pass.Reportf(call.Args[0].Pos(),
					"payload id %d for %s is outside this package's %s", reg.id, typeName, band)
			}
		}
	}

	encSeq, encBranchy, encOK := codecCallSequence(pass, call.Args[1])
	decSeq, decBranchy, decOK := codecCallSequence(pass, call.Args[2])
	if encOK && decOK {
		e, d := encSeq, decSeq
		if encBranchy || decBranchy {
			e, d = collapseRuns(e), collapseRuns(d)
		}
		if !equalSeq(e, d) {
			pass.Reportf(call.Pos(),
				"codec for %s is asymmetric: encoder writes [%s] but decoder reads [%s] — field order is the wire format",
				typeName, strings.Join(e, " "), strings.Join(d, " "))
		}
	}
	return []payloadReg{reg}
}

// codecCallSequence extracts the source-order sequence of Encoder or
// Decoder value-method calls on fn's codec parameter. fn must be a
// function literal or a same-package function; otherwise ok is false
// and the symmetry check is skipped.
func codecCallSequence(pass *Pass, fn ast.Expr) (seq []string, branchy, ok bool) {
	info := pass.Pkg.Info
	var body *ast.BlockStmt
	var param types.Object
	switch v := fn.(type) {
	case *ast.FuncLit:
		body = v.Body
		if len(v.Type.Params.List) == 0 || len(v.Type.Params.List[0].Names) == 0 {
			return nil, false, false
		}
		param = info.Defs[v.Type.Params.List[0].Names[0]]
	case *ast.Ident:
		obj, _ := info.Uses[v].(*types.Func)
		if obj == nil {
			return nil, false, false
		}
		fd := funcDeclOf(pass.Pkg, obj)
		if fd == nil || fd.Body == nil {
			return nil, false, false
		}
		body = fd.Body
		params := paramObjects(info, fd)
		if len(params) == 0 {
			return nil, false, false
		}
		param = params[0]
	default:
		return nil, false, false
	}
	if param == nil {
		return nil, false, false
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.IfStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt:
			branchy = true
		case *ast.CallExpr:
			sel, selOK := v.Fun.(*ast.SelectorExpr)
			if !selOK || !codecValueMethods[sel.Sel.Name] {
				return true
			}
			if id, idOK := sel.X.(*ast.Ident); idOK && info.ObjectOf(id) == param {
				seq = append(seq, sel.Sel.Name)
			}
		}
		return true
	})
	return seq, branchy, true
}

// funcDeclOf finds the declaration of obj in pkg.
func funcDeclOf(pkg *Package, obj *types.Func) *ast.FuncDecl {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && pkg.Info.Defs[fd.Name] == obj {
				return fd
			}
		}
	}
	return nil
}

// collapseRuns removes consecutive duplicates: [I64 U32 U32 I32] ->
// [I64 U32 I32].
func collapseRuns(seq []string) []string {
	var out []string
	for i, s := range seq {
		if i == 0 || s != seq[i-1] {
			out = append(out, s)
		}
	}
	return out
}

func equalSeq(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sentPayload classifies call as a runtime send with a statically known
// payload type: a Send/SendObject/Broadcast method call on a Context or
// Collection receiver whose last argument's type is concrete.
func sentPayload(info *types.Info, call *ast.CallExpr) (payloadSend, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !sendMethodNames[sel.Sel.Name] || len(call.Args) == 0 {
		return payloadSend{}, false
	}
	fn := methodOf(info, call)
	if fn == nil {
		return payloadSend{}, false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return payloadSend{}, false
	}
	if name := namedTypeName(recv.Type()); name != "Context" && name != "Collection" {
		return payloadSend{}, false
	}
	data := call.Args[len(call.Args)-1]
	t := info.TypeOf(data)
	if t == nil {
		return payloadSend{}, false
	}
	t = types.Default(t)
	if _, isIface := t.Underlying().(*types.Interface); isIface {
		return payloadSend{}, false
	}
	if _, isParam := t.(*types.TypeParam); isParam {
		return payloadSend{}, false
	}
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Name() == "Message" && obj.Pkg() != nil && matchesSegmentPath(obj.Pkg().Path(), "internal/comm") {
			return payloadSend{}, false
		}
	}
	return payloadSend{typeName: types.TypeString(t, nil), pos: data.Pos()}, true
}
