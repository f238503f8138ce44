package analysis

import "testing"

// TestLoadAllSmoke loads and typechecks the whole module; every package
// must come back clean (the tree is expected to compile).
func TestLoadAllSmoke(t *testing.T) {
	l, err := NewLoader("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	pkgs := l.LoadAll()
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages", len(pkgs))
	}
	for _, p := range pkgs {
		if len(p.TypeErrors) > 0 {
			t.Errorf("%s: %d type errors, first: %v", p.Path, len(p.TypeErrors), p.TypeErrors[0])
		}
	}
}
