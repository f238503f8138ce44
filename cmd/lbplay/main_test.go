package main

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// TestFlagAppliesToMode: a flag the chosen mode does not read is refused by
// name, whichever it is, and every flag is accepted in a mode that reads
// it. -order under -distributed, and -rounds and -nodes without it, used
// to be accepted and ignored.
func TestFlagAppliesToMode(t *testing.T) {
	const engine, distributed, both = 1, 2, 3
	for _, tc := range []struct {
		args []string // one flag and its value
		mode int      // the modes that read it
	}{
		{[]string{"-ranks", "8"}, both},
		{[]string{"-tasks", "50"}, both},
		{[]string{"-loaded", "2"}, both},
		{[]string{"-placement", "uniform"}, both},
		{[]string{"-loads", "exp"}, both},
		{[]string{"-seed", "9"}, both},
		{[]string{"-trace", "t.json"}, both},
		{[]string{"-strategy", "greedy"}, engine},
		{[]string{"-order", "arbitrary"}, engine},
		{[]string{"-transport", "unix"}, distributed},
		{[]string{"-faults", "drop=0.1"}, distributed},
		{[]string{"-rounds", "1"}, distributed},
		{[]string{"-metrics", "m.prom"}, distributed},
		{[]string{"-serve", ":0"}, distributed},
		{[]string{"-frames", "f.ndjson"}, distributed},
		{[]string{"-result", "r.json"}, distributed},
	} {
		for _, mode := range []int{engine, distributed} {
			args, when := tc.args, "without -distributed"
			if mode == distributed {
				args, when = append([]string{"-distributed"}, args...), "with -distributed -transport memory"
			}
			fs := flag.NewFlagSet("lbplay", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			_, err := parse(fs, args)
			switch want := tc.args[0] + " has no effect " + when; {
			case tc.mode&mode != 0 && err != nil:
				t.Errorf("lbplay %s: %v", strings.Join(args, " "), err)
			case tc.mode&mode == 0 && (err == nil || err.Error() != want):
				t.Errorf("lbplay %s: got %v, want %q", strings.Join(args, " "), err, want)
			}
		}
	}
}

// TestNodesAppliesToSocketJobs: -nodes is read by a -distributed job on a
// socket transport only; the in-memory job has no nodes and used to accept
// and ignore it.
func TestNodesAppliesToSocketJobs(t *testing.T) {
	for _, tc := range []struct{ args, want string }{
		{"-nodes 3", "-nodes has no effect without -distributed"},
		{"-distributed -nodes 3", "-nodes has no effect with -distributed -transport memory"},
		{"-distributed -transport memory -nodes 3", "-nodes has no effect with -distributed -transport memory"},
		{"-distributed -transport unix -nodes 3", ""},
		{"-distributed -transport tcp -nodes 3", ""},
	} {
		fs := flag.NewFlagSet("lbplay", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		_, err := parse(fs, strings.Fields(tc.args))
		got := ""
		if err != nil {
			got = err.Error()
		}
		if got != tc.want {
			t.Errorf("lbplay %s: got %q, want %q", tc.args, got, tc.want)
		}
	}
}

// TestNodeFlagsApplyToOneNodeOfAJob: -node is read by a -distributed job
// on a socket transport, and the flags of one node — the peers file that
// says where every node listens among them — only with -node; each is
// otherwise refused by name.
func TestNodeFlagsApplyToOneNodeOfAJob(t *testing.T) {
	for _, tc := range []struct{ args, want string }{
		{"-node 0", "-node has no effect without -distributed"},
		{"-distributed -node 0", "-node has no effect with -distributed -transport memory"},
		{"-distributed -transport memory -jobid 3", "-jobid has no effect with -distributed -transport memory"},
		{"-distributed -transport tcp -peers p", "-peers has no effect with -distributed and no -node"},
		{"-distributed -transport tcp -jobid 3", "-jobid has no effect with -distributed and no -node"},
		{"-distributed -transport tcp -timeout 1s", "-timeout has no effect with -distributed and no -node"},
		{"-distributed -transport tcp -v", "-v has no effect with -distributed and no -node"},
		{"-distributed -transport tcp -order arbitrary", "-order has no effect with -distributed and no -node"},
		{"-distributed -transport tcp -node 0 -peers p -order arbitrary", "-order has no effect with -distributed"},
		{"-distributed -transport tcp -node 1 -peers p -jobid 3 -timeout 1s -v", ""},
		{"-distributed -transport unix -node 0 -peers p", ""},
	} {
		fs := flag.NewFlagSet("lbplay", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		_, err := parse(fs, strings.Fields(tc.args))
		got := ""
		if err != nil {
			got = err.Error()
		}
		if got != tc.want {
			t.Errorf("lbplay %s: got %q, want %q", tc.args, got, tc.want)
		}
	}
}

// TestServiceModeIsGone: `lbplay -service` was a second driver of the
// online service that accepted -trace, -faults, -rounds and -result and
// ignored them. cmd/lbserve is the service; here its flags are unknown.
func TestServiceModeIsGone(t *testing.T) {
	for _, name := range []string{"-service", "-scenario", "-phases", "-trigger", "-lbcost"} {
		fs := flag.NewFlagSet("lbplay", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		if _, err := parse(fs, []string{name, "1"}); err == nil || !strings.Contains(err.Error(), "not defined") {
			t.Errorf("lbplay %s: got %v, want an unknown-flag error", name, err)
		}
	}
}
