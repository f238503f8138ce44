package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestExitStatus runs lbvet in a small module with one clean package
// and one that does not typecheck: 0 for no findings, 1 for findings (a
// broken package is one), 2 for a usage error — an unknown flag, or a
// pattern that names nothing.
func TestExitStatus(t *testing.T) {
	dir := t.TempDir()
	for name, src := range map[string]string{
		"go.mod":         "module vetmod\n\ngo 1.22\n",
		"clean/clean.go": "package clean\n\nfunc F() int { return 1 }\n",
		"bad/bad.go":     "package bad\n\nvar X int = missingName\n",
	} {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{"./clean"}, 0},
		{nil, 1},
		{[]string{"-json", "./..."}, 1},
		{[]string{"-fix"}, 2},
		{[]string{"-only=maporder"}, 2},
		{[]string{"./nosuch"}, 2},
	} {
		var stdout, stderr bytes.Buffer
		if got := run(tc.args, &stdout, &stderr); got != tc.want {
			t.Errorf("lbvet %q: exit %d, want %d\nstdout: %s\nstderr: %s", tc.args, got, tc.want, &stdout, &stderr)
		}
		if len(tc.args) > 0 && tc.args[0] == "-json" {
			var findings []map[string]any
			if err := json.Unmarshal(stdout.Bytes(), &findings); err != nil || len(findings) == 0 {
				t.Errorf("lbvet -json: want a non-empty JSON array, got %q (%v)", &stdout, err)
			}
		}
	}
}
