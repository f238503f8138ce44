package cli

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// allGroups registers the four groups, whole, on one FlagSet. The flag
// package panics when a name is declared twice, so returning at all
// proves the groups disjoint.
func allGroups() (*flag.FlagSet, []string) {
	fs := flag.NewFlagSet("all", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	names := slices.Concat(
		new(Workload).Register(fs), new(Runtime).Register(fs),
		new(Outputs).Register(fs), new(Service).Register(fs))
	return fs, names
}

func TestGroupsAreDisjointAndTakeSubsets(t *testing.T) {
	fs, names := allGroups()
	if len(names) != 20 {
		t.Errorf("the four groups declare %d flags, want 20: %v", len(names), names)
	}
	fs.VisitAll(func(f *flag.Flag) {
		if !slices.Contains(names, f.Name) {
			t.Errorf("-%s is registered but Register did not return it", f.Name)
		}
	})

	// A binary's defaults are the values it puts in the fields, and a
	// subset declares the named flags and nothing else.
	fs = flag.NewFlagSet("subset", flag.ContinueOnError)
	wl := Workload{Ranks: 8, Seed: 7}
	if got := wl.Register(fs, "ranks", "seed"); !slices.Equal(got, []string{"ranks", "seed"}) {
		t.Errorf("subset registered %v", got)
	}
	if fs.Lookup("tasks") != nil || fs.Lookup("ranks").DefValue != "8" || fs.Lookup("seed").DefValue != "7" {
		t.Errorf("subset: -tasks %v, -ranks default %s, -seed default %s",
			fs.Lookup("tasks"), fs.Lookup("ranks").DefValue, fs.Lookup("seed").DefValue)
	}
	if err := fs.Parse([]string{"-ranks", "5"}); err != nil || wl.Ranks != 5 || wl.Seed != 7 {
		t.Errorf("parsed into %+v, %v", wl, err)
	}
	defer func() {
		if recover() == nil {
			t.Error("asking a group for a flag it does not have went unnoticed")
		}
	}()
	new(Outputs).Register(flag.NewFlagSet("typo", flag.ContinueOnError), "metrics", "ranks")
}

func TestCheckApplies(t *testing.T) {
	fs, _ := allGroups()
	if err := fs.Parse([]string{"-ranks", "4", "-rounds", "2"}); err != nil {
		t.Fatal(err)
	}
	if err := CheckApplies(fs, "here", []string{"ranks"}, []string{"seed", "rounds"}); err != nil {
		t.Errorf("every given flag applies: %v", err)
	}
	// A flag left at its default is not given, whatever the mode reads.
	err := CheckApplies(fs, "in engine mode", []string{"ranks", "seed"})
	if err == nil || err.Error() != "-rounds has no effect in engine mode" {
		t.Errorf("got %v", err)
	}
}

// binaries builds every command under cmd/ once into a scratch directory.
func binaries(t *testing.T) string {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go tool to build the binaries with")
	}
	dir := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", dir+string(filepath.Separator), "temperedlb/cmd/...").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return dir
}

// TestBinariesSpeakOneVocabulary runs the shipped binaries. Every flag a
// binary shows under a group's name carries the group's help string, so
// no binary declares its own; and each defect that the redeclared copies
// had drifted into is an error naming the flag, exit status 1, no stack
// trace — or, for the deleted `lbplay -service`, an unknown flag.
func TestBinariesSpeakOneVocabulary(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binaries")
	}
	bin := binaries(t)
	run := func(name string, args ...string) (stdout, stderr string, exit int) {
		var o, e bytes.Buffer
		cmd := exec.Command(filepath.Join(bin, name), args...)
		cmd.Stdout, cmd.Stderr, cmd.Dir = &o, &e, bin
		err := cmd.Run()
		var ee *exec.ExitError
		if err != nil && !errors.As(err, &ee) {
			t.Fatalf("%s: %v", name, err)
		}
		return o.String(), e.String(), cmd.ProcessState.ExitCode()
	}

	groups, names := allGroups()
	shown := regexp.MustCompile(`(?m)^  -([a-z]+)\b`)
	for _, name := range []string{"lbplay", "lbnode", "lbserve", "lbaf", "empire", "lbcoord"} {
		_, usage, _ := run(name, "-h")
		n := 0
		for _, m := range shown.FindAllStringSubmatch(usage, -1) {
			if !slices.Contains(names, m[1]) {
				continue
			}
			if n++; !strings.Contains(usage, "\n    \t"+groups.Lookup(m[1]).Usage) {
				t.Errorf("%s -h: -%s does not carry the group's help string", name, m[1])
			}
		}
		if n == 0 {
			t.Errorf("%s -h shows no flag of the shared groups:\n%s", name, usage)
		}
	}

	for _, tc := range []struct {
		name, args, want string
	}{
		{"lbserve", "-transport unix -nodes 0", "lbserve: -nodes 0: "},
		{"lbserve", "-fanout 1", "lbserve: -fanout 1: "},
		{"lbserve", "-ranks 0", "lbserve: -ranks 0: "},
		{"lbserve", "-transport quic", `lbserve: -transport "quic": `},
		{"lbserve", "-record r.json -serve :0", "lbserve: -serve has no effect with -record"},
		{"lbserve", "-record r.json -transport unix", "lbserve: -transport has no effect with -record"},
		{"lbserve", "-record r.json -tune all", "lbserve: -tune has no effect with -record"},
		{"lbserve", "-tune all -frames f.ndjson", "lbserve: -frames has no effect with -tune"},
		{"lbserve", "-tune all -metrics m.prom", "lbserve: -metrics has no effect with -tune"},
		{"lbserve", "-tune all -trigger always", "lbserve: -trigger has no effect with -tune"},
		{"lbserve", "-tune all -replay r.json -phases 3", "lbserve: -phases has no effect with -tune -replay"},
		{"lbserve", "-replay r.json", "lbserve: -replay has no effect without -tune"},
		{"lbserve", "-nodes 3", "lbserve: -nodes has no effect with -transport memory"},
		{"lbplay", "-distributed -fanout 1", "lbplay: -fanout 1: "},
		{"lbplay", "-distributed -ranks 0", "lbplay: -ranks 0: "},
		{"lbplay", "-distributed -transport tcp -nodes 65", "lbplay: -ranks 64 < -nodes 65: "},
		{"lbplay", "-distributed -transport quic", `lbplay: -transport "quic": `},
		{"lbplay", "-distributed -order arbitrary", "lbplay: -order has no effect with -distributed"},
		{"lbplay", "-nodes 3", "lbplay: -nodes has no effect without -distributed"},
		{"lbplay", "-distributed -nodes 3", "lbplay: -nodes has no effect with -distributed -transport memory"},
		{"lbnode", "-node 0 -peers p -fanout 1", "lbnode 0: -fanout 1: "},
		{"lbnode", "-node 0 -peers p -ranks 0", "lbnode 0: -ranks 0: "},
		{"lbnode", "-node 0 -peers p -nodes 13", "lbnode 0: -ranks 12 < -nodes 13: "},
		{"lbnode", "-node 0 -peers p -transport memory", `lbnode 0: -transport "memory": `},
	} {
		stdout, stderr, exit := run(tc.name, strings.Fields(tc.args)...)
		if exit != 1 || stdout != "" || !strings.HasPrefix(stderr, tc.want) || strings.Contains(stderr, "goroutine") {
			t.Errorf("%s %s: exit %d, stdout %q, stderr %q; want exit 1 and %q", tc.name, tc.args, exit, stdout, stderr, tc.want)
		}
	}

	_, stderr, exit := run("lbplay", strings.Fields("-service -trace t.json -faults drop=0.1 -rounds 3 -result r.json")...)
	if exit == 0 || !strings.HasPrefix(stderr, "flag provided but not defined: -service") {
		t.Errorf("lbplay -service: exit %d, stderr %q", exit, stderr)
	}
	for _, f := range []string{"t.json", "r.json"} {
		if _, err := os.Stat(filepath.Join(bin, f)); err == nil {
			t.Errorf("lbplay -service wrote %s", f)
		}
	}
}
