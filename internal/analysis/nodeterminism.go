package analysis

import "go/ast"

// forbiddenTimeFuncs are the wall-clock reads banned from protocol
// packages. time.Until and time.Since read the clock exactly like
// time.Now; the sanctioned replacements live in internal/clock.
var forbiddenTimeFuncs = map[string]bool{
	"Now":   true,
	"Since": true,
	"Until": true,
}

// globalRandFuncs are the math/rand (and math/rand/v2) package-level
// draws that consume the process-global generator. Constructors
// (New, NewSource, NewZipf, NewPCG, NewChaCha8) are fine: they build
// the private, seeded streams the protocol requires.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "NormFloat64": true,
	"ExpFloat64": true, "Perm": true, "Shuffle": true, "Seed": true,
	"Read": true,
	// math/rand/v2 spellings.
	"N": true, "IntN": true, "Int32": true, "Int32N": true,
	"Int64N": true, "Uint": true, "UintN": true, "Uint32N": true,
	"Uint64N": true,
}

// newNodeterminism forbids nondeterminism sources in the protocol
// packages: wall-clock reads (time.Now / time.Since / time.Until —
// route them through internal/clock, which documents the two sanctioned
// purposes) and global math/rand draws (use a per-rank seeded
// *rand.Rand, e.g. core.SeededRNG). The protocol's bit-determinism
// under faults — proved by the chaos suite — survives only while no
// decision reads ambient entropy.
//
// Scope: the protocol packages (internal/core, internal/lb,
// internal/amt, internal/comm, internal/termination, internal/serve)
// plus examples/* — the examples are executable protocol documentation
// and must replay exactly like the protocol itself. Carve-outs:
// internal/comm/wire (dial backoff, RTT measurement and write deadlines
// legitimately read the wall clock below the protocol; see
// protocolPackage) and cmd/* (lbplay's peer-connect timeout and lbtop's
// dashboard refresh are operator I/O, not protocol decisions — the
// protocol work those commands trigger lives in internal/ and is
// covered there).
func newNodeterminism() *Analyzer {
	a := &Analyzer{
		Name: "nodeterminism",
		Doc:  "forbid wall-clock reads and global math/rand draws in protocol packages and examples",
	}
	a.Run = func(pass *Pass) {
		if !protocolPackage(pass.Pkg.Path) && !matchesSegmentPath(pass.Pkg.Path, "examples") {
			return
		}
		for _, f := range pass.Pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if name, ok := pkgFunc(pass.Pkg.Info, call, "time"); ok && forbiddenTimeFuncs[name] {
					pass.Reportf(call.Pos(),
						"wall-clock read time.%s in protocol package: use internal/clock (observability stamps and retry pacing only)", name)
					return true
				}
				for _, randPkg := range []string{"math/rand", "math/rand/v2"} {
					if name, ok := pkgFunc(pass.Pkg.Info, call, randPkg); ok && globalRandFuncs[name] {
						pass.Reportf(call.Pos(),
							"global %s.%s in protocol package: draw from a per-rank seeded *rand.Rand (core.SeededRNG) instead", randPkg, name)
						return true
					}
				}
				return true
			})
		}
	}
	return a
}
