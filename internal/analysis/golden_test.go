package analysis

import (
	"bufio"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// The tests share one loader, listed over the testdata packages so it
// holds export data for every import a fixture makes; the fixtures are
// then typechecked under synthetic protocol import paths
// (protocolPackage matches on internal/... segments).
var (
	loaderOnce sync.Once
	testLd     *Loader
	testLdErr  error
)

func testLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() { testLd, testLdErr = NewLoader("testdata", "./...") })
	if testLdErr != nil {
		t.Fatal(testLdErr)
	}
	return testLd
}

// loadTestdata loads internal/analysis/testdata/<rel> as import path
// td/internal/core/<rel>, failing the test on typecheck errors.
func loadTestdata(t *testing.T, rel string) *Package {
	t.Helper()
	pkg := testLoader(t).LoadDir(filepath.Join("testdata", rel), "td/internal/core/"+rel)
	if len(pkg.TypeErrors) > 0 {
		t.Fatalf("testdata/%s does not typecheck: %v", rel, pkg.TypeErrors)
	}
	return pkg
}

func analyzerByName(t *testing.T, name string) *Analyzer {
	t.Helper()
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	t.Fatalf("no analyzer named %q", name)
	return nil
}

var wantRE = regexp.MustCompile(`// want "([^"]*)"`)

// wantsOf parses the `// want "substr"` expectations of every file in
// dir, keyed by line number.
func wantsOf(t *testing.T, dir string) map[int]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	wants := make(map[int]string)
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			if m := wantRE.FindStringSubmatch(sc.Text()); m != nil {
				wants[line] = m[1]
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	return wants
}

// TestGolden runs each analyzer over its positive and negative testdata
// packages: every `// want` expectation must be matched by a finding on
// its line, every finding must be expected, and the negative package
// must be silent.
func TestGolden(t *testing.T) {
	for _, name := range []string{"nodeterminism", "maporder", "collectivesym", "seedflow"} {
		t.Run(name+"/pos", func(t *testing.T) {
			pkg := loadTestdata(t, name+"/pos")
			runner := &Runner{Analyzers: []*Analyzer{analyzerByName(t, name)}}
			diags := runner.Run([]*Package{pkg})
			wants := wantsOf(t, pkg.Dir)
			if len(wants) == 0 {
				t.Fatalf("no // want expectations in %s", pkg.Dir)
			}
			matched := make(map[int]bool)
			for _, d := range diags {
				want, ok := wants[d.Pos.Line]
				if !ok {
					t.Errorf("unexpected finding: %s", d)
					continue
				}
				if !strings.Contains(d.Message, want) {
					t.Errorf("line %d: got %q, want substring %q", d.Pos.Line, d.Message, want)
				}
				matched[d.Pos.Line] = true
			}
			for line, want := range wants {
				if !matched[line] {
					t.Errorf("line %d: expected finding matching %q, got none", line, want)
				}
			}
		})
		t.Run(name+"/neg", func(t *testing.T) {
			pkg := loadTestdata(t, name+"/neg")
			runner := &Runner{Analyzers: []*Analyzer{analyzerByName(t, name)}}
			for _, d := range runner.Run([]*Package{pkg}) {
				t.Errorf("false positive: %s", d)
			}
		})
	}
}

// TestProtocolScoping loads the nodeterminism positive package under
// import paths the analyzer must not guard — a non-protocol utility
// path, and the internal/comm/wire carve-out (the socket transport
// legitimately reads the clock for dial backoff and RTT measurement) —
// and requires silence on both.
func TestProtocolScoping(t *testing.T) {
	for name, importPath := range map[string]string{
		"util": "td/util/ndscope",
		"wire": "td/internal/comm/wire",
	} {
		t.Run(name, func(t *testing.T) {
			pkg := testLoader(t).LoadDir(filepath.Join("testdata", "nodeterminism", "pos"), importPath)
			if len(pkg.TypeErrors) > 0 {
				t.Fatalf("fixture does not typecheck: %v", pkg.TypeErrors)
			}
			runner := &Runner{Analyzers: []*Analyzer{analyzerByName(t, "nodeterminism")}}
			for _, d := range runner.Run([]*Package{pkg}) {
				t.Errorf("finding outside protocol packages: %s", d)
			}
		})
	}
}
