// Package analysis is a self-contained static-analysis framework for
// this module: a loader that typechecks each package from source against
// the compiler's export data for its imports (go/parser, go/types and
// go/importer over one `go list -export` call — no golang.org/x/tools),
// a driver that runs project-specific analyzers over each loaded package
// on its own, and the analyzers themselves, which turn the repo's
// determinism contracts (DESIGN.md §9) into machine-checked gates.
//
// The cmd/lbvet binary is the front end; `make lint` runs it over ./...
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the finding in the canonical `file:line: message
// [analyzer]` form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: %s [%s]", d.Pos.Filename, d.Pos.Line, d.Message, d.Analyzer)
}

// Analyzer is one project-specific check. Run is invoked once per
// loaded package and sees nothing but that package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass carries one package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	report   func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil when unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Pkg.Info.TypeOf(e) }

// Runner drives a set of analyzers over loaded packages.
type Runner struct {
	Analyzers []*Analyzer
}

// typecheckAnalyzer is the pseudo-analyzer name under which load and
// typecheck failures are reported. A package that does not typecheck is
// itself a finding — the driver must never panic on one.
const typecheckAnalyzer = "typecheck"

// Run executes every analyzer over every package and returns the
// diagnostics sorted by position. Packages that failed to typecheck
// contribute their type errors as `typecheck` diagnostics and are
// excluded from analysis (their type information is incomplete).
func (r *Runner) Run(pkgs []*Package) []Diagnostic {
	var diags []Diagnostic
	report := func(d Diagnostic) { diags = append(diags, d) }

	for _, pkg := range pkgs {
		if len(pkg.TypeErrors) > 0 {
			for _, err := range pkg.TypeErrors {
				diags = append(diags, typeErrorDiagnostic(pkg, err))
			}
			continue
		}
		for _, a := range r.Analyzers {
			a.Run(&Pass{Analyzer: a, Pkg: pkg, report: report})
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

func typeErrorDiagnostic(pkg *Package, err error) Diagnostic {
	d := Diagnostic{Analyzer: typecheckAnalyzer, Message: err.Error()}
	if te, ok := err.(types.Error); ok {
		d.Pos = te.Fset.Position(te.Pos)
		d.Message = te.Msg
	} else {
		d.Pos = token.Position{Filename: pkg.Dir}
	}
	return d
}
