package cli

import (
	"bufio"
	"bytes"
	"errors"
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"temperedlb/internal/core"
)

// allGroups registers the five groups, whole, on one FlagSet. The flag
// package panics when a name is declared twice, so returning at all
// proves the groups disjoint.
func allGroups() (*flag.FlagSet, []string) {
	fs := flag.NewFlagSet("all", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	names := slices.Concat(
		new(Workload).Register(fs), new(Balancer).Register(fs), new(Runtime).Register(fs),
		new(Outputs).Register(fs), new(Service).Register(fs))
	return fs, names
}

func TestGroupsAreDisjointAndTakeSubsets(t *testing.T) {
	fs, names := allGroups()
	if len(names) != 25 {
		t.Errorf("the five groups declare %d flags, want 25: %v", len(names), names)
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
	// A binary that does not take -node (lbserve) hosts the whole job.
	rt := Runtime{Transport: "unix", Nodes: 2}
	rt.Register(flag.NewFlagSet("subset", flag.ContinueOnError), "transport", "nodes")
	if rt.isNode() || rt.Validate(4) != nil {
		t.Errorf("a runtime group registered without -node: isNode %v, Validate %v", rt.isNode(), rt.Validate(4))
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

// TestBalancerKnobs: a negative -iters is refused with the flag's name
// (TestValidateGeometry has the -rounds rows), and a zero knob keeps the
// strategy's default.
func TestBalancerKnobs(t *testing.T) {
	for _, tc := range []struct {
		b    Balancer
		want string // prefix of the error; empty means valid
	}{
		{Balancer{}, ""},
		{Balancer{Rounds: 64, Iters: 8}, ""},
		{Balancer{Iters: -1}, "-iters -1: "},
	} {
		err := tc.b.Validate()
		if tc.want == "" && err != nil || tc.want != "" && (err == nil || !strings.HasPrefix(err.Error(), tc.want)) {
			t.Errorf("%+v: Validate() = %v, want %q", tc.b, err, tc.want)
		}
	}
	cfg := core.Tempered()
	(&Balancer{Iters: 2}).Apply(&cfg)
	if want := core.Tempered(); cfg.Rounds != want.Rounds || cfg.Iterations != 2 {
		t.Errorf("Apply of -iters 2 gave rounds %d, iterations %d; want %d, 2", cfg.Rounds, cfg.Iterations, want.Rounds)
	}
}

// TestEachFlagIsDeclaredOnce reads the binaries' sources: a flag name two
// of them declare for themselves is a vocabulary drifting apart, and
// belongs in a group here. -exp is the one exception, because each binary
// names its own experiments.
func TestEachFlagIsDeclaredOnce(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "*", "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no binary sources under cmd/ (%v)", err)
	}
	declares := regexp.MustCompile(`^(Bool|Duration|Float64|Func|Int|Int64|String|TextVar|Uint|Uint64|Var)(Var)?$`)
	declaredBy := map[string]string{} // flag name -> the binary declaring it
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		bin := filepath.Base(filepath.Dir(file))
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); !ok || !declares.MatchString(sel.Sel.Name) {
				return true
			}
			// The flag's name is the call's first string literal.
			for _, arg := range call.Args {
				if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					name, _ := strconv.Unquote(lit.Value)
					if other, ok := declaredBy[name]; ok && other != bin && name != "exp" {
						t.Errorf("-%s is declared by both %s and %s: declare it once, in a group of cmd/internal/cli", name, other, bin)
					}
					declaredBy[name] = bin
					break
				}
			}
			return true
		})
	}
	if len(declaredBy) == 0 {
		t.Error("found no flag declarations in the binaries' sources")
	}
}

// binaries builds every command under cmd/ once into a scratch directory:
// six of them, the node and coordinator binaries no longer among them.
func binaries(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds the binaries")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go tool to build the binaries with")
	}
	dir := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", dir+string(filepath.Separator), "temperedlb/cmd/...").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	built, err := os.ReadDir(dir)
	if err != nil || len(built) != 6 {
		t.Errorf("built %d binaries (%v), want 6", len(built), err)
	}
	for _, gone := range []string{"lbnode", "lbcoord"} {
		if out, err := exec.Command("go", "build", "-o", os.DevNull, "temperedlb/cmd/"+gone).CombinedOutput(); err == nil {
			t.Errorf("cmd/%s still builds:\n%s", gone, out)
		}
	}
	return dir
}

// TestBinariesSpeakOneVocabulary runs the shipped binaries. Every flag a
// binary shows under a group's name carries the group's help string, so
// no binary declares its own; and each defect that the redeclared copies
// had drifted into is an error naming the flag, exit status 1, no stack
// trace — or, for the deleted `lbplay -service`, an unknown flag.
func TestBinariesSpeakOneVocabulary(t *testing.T) {
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
	for _, name := range []string{"lbplay", "lbserve", "lbaf", "empire"} {
		_, usage, _ := run(name, "-h")
		n := 0
		for _, m := range shown.FindAllStringSubmatch(usage, -1) {
			if !slices.Contains(names, m[1]) {
				continue
			}
			if n++; !strings.Contains(usage, "\t"+groups.Lookup(m[1]).Usage) {
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
		{"lbserve", "-ranks 0", "lbserve: -ranks 0: "},
		{"lbserve", "-transport quic", `lbserve: -transport "quic": `},
		{"lbserve", "-tune all -frames f.ndjson", "lbserve: -frames has no effect with -tune"},
		{"lbserve", "-tune all -metrics m.prom", "lbserve: -metrics has no effect with -tune"},
		{"lbserve", "-tune all -trigger always", "lbserve: -trigger has no effect with -tune"},
		{"lbserve", "-tune all -transport unix", "lbserve: -transport has no effect with -tune"},
		{"lbserve", "-nodes 3", "lbserve: -nodes has no effect with -transport memory"},
		{"lbplay", "-distributed -ranks 0", "lbplay: -ranks 0: "},
		{"lbplay", "-distributed -transport tcp -nodes 65", "lbplay: -ranks 64 < -nodes 65: "},
		{"lbplay", "-distributed -transport quic", `lbplay: -transport "quic": `},
		{"lbplay", "-distributed -order arbitrary", "lbplay: -order has no effect with -distributed"},
		{"lbplay", "-nodes 3", "lbplay: -nodes has no effect without -distributed"},
		{"lbplay", "-distributed -nodes 3", "lbplay: -nodes has no effect with -distributed -transport memory"},
		{"lbserve", "-alpha 2", "lbserve: -alpha 2: want in (0,1]"},
		{"lbserve", "-alpha -0.5", "lbserve: -alpha -0.5: want in (0,1]"},
		{"lbserve", "-beta 2", "lbserve: -beta 2: want in [0,1]"},
		{"lbserve", "-beta -1", "lbserve: -beta -1: want in [0,1]"},
		{"lbserve", "-maxage -1", "lbserve: -maxage -1: want >= 0"},
		{"lbserve", "-lbcost -1", "lbserve: -lbcost -1: want >= 0"},
		{"lbserve", "-hot -1", "lbserve: -hot -1: want in [0,8]"},
		{"lbserve", "-hot 9", "lbserve: -hot 9: want in [0,8]"},
		{"lbserve", "-phases 0", "lbserve: -phases 0: want >= 1"},
		{"lbserve", "-items 0", "lbserve: -items 0: want >= 1"},
		{"lbserve", "-tune all -alpha 2", "lbserve: -alpha 2: want in (0,1]"},
		{"lbserve", "-tune all -items 0", "lbserve: -items 0: want >= 1"},
		{"lbserve", "-alpha 0", "lbserve: -alpha 0: want in (0,1] (zero selects the library default)"},
		{"lbserve", "-beta 0", "lbserve: -beta 0: want in (0,1] (zero selects the library default)"},
		{"lbserve", "-tune all -lbcost 0", "lbserve: -lbcost 0: want > 0 (zero selects the library default)"},
		{"lbserve", "-trigger threshold:NaN", `lbserve: serve: trigger "threshold:NaN": want threshold:H with H >= 0`},
		{"lbplay", "-distributed -transport tcp -node 0 -peers p -ranks 0", "lbplay: -ranks 0: "},
		{"lbplay", "-distributed -transport tcp -node 0 -peers p -nodes 65", "lbplay: -ranks 64 < -nodes 65: "},
		{"lbplay", "-distributed -transport tcp -node 2 -peers p", "lbplay: -node 2 outside [0,2)"},
		{"lbplay", "-distributed -transport unix -node 0 -peers p", "lbplay: -peers p: open p: "},
		{"lbplay", "-distributed -transport tcp -node 0", "lbplay: -node 0 needs -peers: "},
		{"lbplay", "-distributed -node 0 -peers p", "lbplay: -node has no effect with -distributed -transport memory"},
		{"lbplay", "-node 0", "lbplay: -node has no effect without -distributed"},
		{"lbplay", "-distributed -transport tcp -peers p", "lbplay: -peers has no effect with -distributed and no -node"},
		{"lbplay", "-distributed -faults retry=5ms", `lbplay: -faults: comm: fault spec: unknown key "retry"`},
	} {
		stdout, stderr, exit := run(tc.name, strings.Fields(tc.args)...)
		if exit != 1 || stdout != "" || !strings.HasPrefix(stderr, tc.want) || strings.Contains(stderr, "goroutine") {
			t.Errorf("%s %s: exit %d, stdout %q, stderr %q; want exit 1 and %q", tc.name, tc.args, exit, stdout, stderr, tc.want)
		}
	}

	// A job is written down once: the peers file says where each node
	// listens, and the collective tree has one arity.
	for _, name := range []string{"lbplay", "lbserve"} {
		for _, gone := range []string{"-fanout", "-coord", "-listen"} {
			_, stderr, exit := run(name, gone, "2")
			if exit != 2 || !strings.HasPrefix(stderr, "flag provided but not defined: "+gone) {
				t.Errorf("%s %s: exit %d, stderr %q", name, gone, exit, stderr)
			}
		}
	}
	// Faults live in the transport: the engine's binaries have none.
	for _, tc := range [][]string{{"lbaf", "-exp", "vd"}, {"empire", "-scale", "small"}} {
		_, stderr, exit := run(tc[0], append(tc[1:], "-faults", "retry=5ms")...)
		if exit != 2 || !strings.HasPrefix(stderr, "flag provided but not defined: -faults") {
			t.Errorf("%s -faults: exit %d, stderr %q", tc[0], exit, stderr)
		}
	}
	// The replay trace format went with the loop that read it.
	for _, gone := range []string{"-record", "-replay"} {
		_, stderr, exit := run("lbserve", gone, "r.json", "-tune", "all")
		if exit != 2 || !strings.HasPrefix(stderr, "flag provided but not defined: "+gone) {
			t.Errorf("lbserve %s: exit %d, stderr %q", gone, exit, stderr)
		}
	}
	// A tuner row is the live run's row: the same service, run in memory.
	// fields picks columns of the one line of out that starts with prefix.
	fields := func(out, prefix string, cols ...int) (got []string) {
		for _, line := range strings.Split(out, "\n") {
			if f := strings.Fields(line); strings.HasPrefix(line, prefix) && len(f) > slices.Max(cols) {
				for _, c := range cols {
					got = append(got, f[c])
				}
			}
		}
		return got
	}
	tuned, _, _ := run("lbserve", "-tune", "forecast")
	live, _, _ := run("lbserve", "-trigger", "forecast:headroom=2", "-quiet")
	row := fields(tuned, "forecast:headroom=2 ", 2, 4, 6, 8) // fires, waste, lb_paid, total
	sum := fields(live, "# fires ", 2, 6, 8, 10)
	if len(row) != 4 || !slices.Equal(row, sum) {
		t.Errorf("lbserve -tune forecast reports %v for forecast:headroom=2, the run itself %v\n%s%s", row, sum, tuned, live)
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

// TestLostPeerIsANamedError: `kill -9` of one of two lbplay processes in the
// middle of a run ends the survivor, within the 10 s a drain may take, with
// exit status 1 and one line naming the failed transport — it used to be
// the runtime's panic with a goroutine trace, exit status 2.
func TestLostPeerIsANamedError(t *testing.T) {
	bin, dir := binaries(t), t.TempDir()
	sock := func(node int) string { return filepath.Join(dir, "n"+strconv.Itoa(node)) }
	peers := filepath.Join(dir, "peers")
	if err := os.WriteFile(peers, []byte("0 "+sock(0)+"\n1 "+sock(1)+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// start runs node k of a job long enough (≈ 1.5 s) to be struck inside
	// an epoch, and returns it with its stderr, line by line.
	start := func(node int) (*exec.Cmd, <-chan string) {
		cmd := exec.Command(filepath.Join(bin, "lbplay"), "-distributed", "-transport", "unix", "-nodes", "2",
			"-node", strconv.Itoa(node), "-peers", peers,
			"-ranks", "512", "-tasks", "20000", "-rounds", "10")
		stderr, err := cmd.StderrPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cmd.Process.Kill() })
		lines := make(chan string, 64) // a run logs three lines; what a trace adds beyond 64 is dropped, not waited on
		go func() {
			defer close(lines)
			for sc := bufio.NewScanner(stderr); sc.Scan(); {
				select {
				case lines <- sc.Text():
				default:
				}
			}
		}()
		return cmd, lines
	}
	timeout := time.After(30 * time.Second)
	awaitConnected := func(lines <-chan string) {
		for {
			select {
			case l, ok := <-lines:
				if !ok {
					t.Fatal("a node exited before it had connected")
				}
				if strings.Contains(l, "connected") {
					return
				}
			case <-timeout:
				t.Fatal("the nodes did not connect within 30s")
			}
		}
	}
	survivor, lines := start(0)
	victim, victimLines := start(1)
	awaitConnected(lines)
	awaitConnected(victimLines)
	time.Sleep(200 * time.Millisecond) // past object creation, into the protocol's epochs
	if err := victim.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	victim.Wait()

	var after []string
	deadline := time.After(10 * time.Second)
collect:
	for {
		select {
		case l, ok := <-lines:
			if !ok {
				break collect
			}
			after = append(after, l)
		case <-deadline:
			t.Fatalf("the survivor is still running 10s after its peer was killed; stderr so far:\n%s", strings.Join(after, "\n"))
		}
	}
	err := survivor.Wait()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 || len(after) != 1 ||
		!strings.HasPrefix(after[0], "lbplay: unix transport failed: wire: ") {
		t.Errorf("survivor: %v, stderr after connecting:\n%s\nwant exit status 1 and the one line \"lbplay: unix transport failed: wire: …\"",
			err, strings.Join(after, "\n"))
	}
}
