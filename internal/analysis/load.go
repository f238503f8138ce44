package analysis

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one loaded, typechecked package.
type Package struct {
	Path  string // import path, e.g. temperedlb/internal/core
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// TypeErrors holds every parse and typecheck error of the package.
	// Analyzers are not run over packages with errors: their type
	// information is incomplete, and the errors themselves are the
	// findings.
	TypeErrors []error

	// funcSummaries caches the intra-package call-graph summaries
	// (callgraph.go), computed lazily on first use.
	funcSummaries map[*types.Func]*funcSummary
}

// Loader typechecks packages from source, one at a time, importing
// every dependency — standard library and module alike — from the gc
// export data the go command builds (or finds in its build cache). It
// therefore needs the go command on PATH.
//
// Test files (_test.go) are not loaded: the analyzers guard production
// protocol code, and tests legitimately use wall clocks, global
// randomness and unordered iteration.
type Loader struct {
	Fset    *token.FileSet
	listed  []listedPackage   // the packages the patterns name, dependencies first
	exports map[string]string // import path → export data file
	imports types.Importer
}

// listedPackage is the part of `go list -json` output the loader reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	DepOnly    bool
	Error      *struct{ Err string }
}

// NewLoader runs `go list -e -export -deps` once, in dir, over the
// given package patterns: the go command resolves the patterns and
// compiles the export data of every package they name and depend on.
// Only a failure of the go command, or a pattern that names no
// directory, is an error; a package that does not build is listed with
// its error and reported by LoadAll.
func NewLoader(dir string, patterns ...string) (*Loader, error) {
	args := append([]string{"list", "-e", "-export", "-deps",
		"-json=ImportPath,Dir,GoFiles,Export,DepOnly,Error"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			err = fmt.Errorf("%w: %s", err, bytes.TrimSpace(exit.Stderr))
		}
		return nil, fmt.Errorf("analysis: go list: %w", err)
	}
	l := &Loader{Fset: token.NewFileSet(), exports: make(map[string]string)}
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			return nil, fmt.Errorf("analysis: reading go list output: %w", err)
		}
		if p.Export != "" {
			l.exports[p.ImportPath] = p.Export
		}
		if p.DepOnly {
			continue
		}
		if p.Dir == "" && p.Error != nil {
			// A pattern that names no directory is a usage error.
			return nil, fmt.Errorf("analysis: %s", strings.TrimSpace(p.Error.Err))
		}
		l.listed = append(l.listed, p)
	}
	l.imports = importer.ForCompiler(l.Fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := l.exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %s (it does not build, or was not listed)", path)
		}
		return os.Open(file)
	})
	return l, nil
}

// LoadAll typechecks every package the loader's patterns named,
// dependencies first. Failures are recorded on the package, never
// returned: a package that does not typecheck is a diagnostic, not a
// crash. A listed directory with no non-test Go files is skipped.
func (l *Loader) LoadAll() []*Package {
	var pkgs []*Package
	for _, p := range l.listed {
		switch {
		case len(p.GoFiles) > 0:
			// go list's own error for such a package is dropped: the
			// typecheck finds it again, with a position.
			pkgs = append(pkgs, l.check(p.ImportPath, p.Dir, p.GoFiles))
		case p.Error != nil:
			pkgs = append(pkgs, &Package{Path: p.ImportPath, Dir: p.Dir, Fset: l.Fset,
				TypeErrors: []error{errors.New(strings.TrimSpace(p.Error.Err))}})
		}
	}
	return pkgs
}

// LoadDir typechecks the non-test Go files of dir as the package with
// import path asPath, against the export data of the loader's listing.
// The golden-file tests use it to check testdata packages under
// synthetic protocol paths.
func (l *Loader) LoadDir(dir, asPath string) *Package {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return &Package{Path: asPath, Dir: dir, Fset: l.Fset, TypeErrors: []error{err}}
	}
	var names []string
	for _, e := range entries {
		if name := e.Name(); !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			names = append(names, name)
		}
	}
	return l.check(asPath, dir, names)
}

// check parses the named files of dir and typechecks them as package
// path.
func (l *Loader) check(path, dir string, names []string) *Package {
	pkg := &Package{Path: path, Dir: dir, Fset: l.Fset}
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			pkg.TypeErrors = append(pkg.TypeErrors, err)
			continue
		}
		pkg.Files = append(pkg.Files, f)
	}
	if len(pkg.Files) == 0 {
		if len(pkg.TypeErrors) == 0 {
			pkg.TypeErrors = append(pkg.TypeErrors, fmt.Errorf("no Go source files in %s", dir))
		}
		return pkg
	}
	pkg.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{
		Importer: l.imports,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	// Every error reaches conf.Error; Check's return repeats the first.
	pkg.Types, _ = conf.Check(path, l.Fset, pkg.Files, pkg.Info)
	return pkg
}
