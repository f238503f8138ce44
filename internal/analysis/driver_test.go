package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestTypecheckFailureIsDiagnostic loads a package that does not
// compile: the driver must report it under the typecheck
// pseudo-analyzer and skip analysis, never panic.
func TestTypecheckFailureIsDiagnostic(t *testing.T) {
	pkg := testLoader(t).LoadDir(filepath.Join("testdata", "broken"), "td/internal/core/broken")
	if len(pkg.TypeErrors) == 0 {
		t.Fatal("fixture unexpectedly typechecks")
	}
	runner := &Runner{Analyzers: Analyzers()}
	diags := runner.Run([]*Package{pkg})
	if len(diags) == 0 {
		t.Fatal("expected a typecheck diagnostic, got none")
	}
	for _, d := range diags {
		if d.Analyzer != "typecheck" {
			t.Errorf("analyzer ran over a broken package: %s", d)
		}
	}
	if !strings.Contains(diags[0].Message, "undefinedName") {
		t.Errorf("diagnostic does not name the type error: %s", diags[0])
	}
}

// TestLoadAllReportsABrokenPackage lists a module in which one package
// has a type error and another imports it. The go command builds no
// export data for either, so both must come back as typecheck
// diagnostics — the error itself, and the failed import naming the
// broken package — rather than as an error from the loader or a panic.
func TestLoadAllReportsABrokenPackage(t *testing.T) {
	dir := t.TempDir()
	for name, src := range map[string]string{
		"go.mod":       "module brokenmod\n\ngo 1.22\n",
		"bad/bad.go":   "package bad\n\nvar X int = missingName\n",
		"user/user.go": "package user\n\nimport \"brokenmod/bad\"\n\nvar Y = bad.X\n",
	} {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ld, err := NewLoader(dir, "./...")
	if err != nil {
		t.Fatalf("NewLoader failed on a module that does not build: %v", err)
	}
	pkgs := ld.LoadAll()
	if len(pkgs) != 2 {
		t.Fatalf("loaded %d packages, want 2", len(pkgs))
	}
	var bad, user bool
	for _, d := range (&Runner{Analyzers: Analyzers()}).Run(pkgs) {
		if d.Analyzer != "typecheck" {
			t.Errorf("not a typecheck diagnostic: %s", d)
		}
		switch filepath.Base(d.Pos.Filename) {
		case "bad.go":
			bad = bad || strings.Contains(d.Message, "missingName")
		case "user.go":
			user = user || strings.Contains(d.Message, "brokenmod/bad")
		default:
			t.Errorf("finding outside the two broken packages: %s", d)
		}
	}
	if !bad {
		t.Error("no diagnostic names the type error in brokenmod/bad")
	}
	if !user {
		t.Error("no diagnostic names the failed import of brokenmod/bad")
	}
}
