package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// toy shrinks a workload to 16 ranks and two ops. The size is set here,
// in the test; the benchmark itself has no size knob.
func toy(name string) *workloadDef {
	w := *workloadByName(name)
	w.Ranks, w.Loaded, w.Tasks = 16, 2, 200
	w.Phases, w.Items = 12, 128
	w.MinOps = 2
	if w.Pool > 0 {
		w.Pool = 2
	}
	if w.Refs > 0 {
		w.Refs = 1
	}
	w.BaseOps, w.TracedOps = 1, 1
	w.MaxFinalImb = 16
	return &w
}

// collect runs f with an emit function and returns what was emitted.
func collect(f func(emit func(record))) *workloadRun {
	run := &workloadRun{}
	f(func(r record) { run.take(r) })
	return run
}

func TestSmokeEveryWorkloadAtToySize(t *testing.T) {
	for _, def := range workloads {
		w := toy(def.Name)
		t.Run(w.Name, func(t *testing.T) {
			out := t.TempDir()

			// A measured run: warm-up, references, two measured ops, every
			// output check on.
			run := collect(func(emit func(record)) { execute(w, 1, 1e-6, false, out, emit) })
			run.w = w
			for _, s := range run.samples {
				if s.Err != "" {
					t.Errorf("op failed: %s", s.Err)
				}
			}
			if len(run.errs) > 0 {
				t.Errorf("run errors: %v", run.errs)
			}
			if n := len(run.perOp(endToEndMetric("op_s_p50"))); n != 2 {
				t.Fatalf("%d measured ops, want 2", n)
			}
			values := run.endToEndValues()
			for _, m := range endToEnd {
				if m.Name == "peak_rss_mb" {
					continue // needs the child process
				}
				if !(values[m.Name] > 0) {
					t.Errorf("%s = %g, want a positive value", m.Name, values[m.Name])
				}
			}

			// A traced run without the probes.
			var layers map[string]float64
			traced := collect(func(emit func(record)) {
				r := &runner{w: w, seed: 1, inputs: map[int]*input{}, emit: emit, outDir: out}
				layers = r.tracedLayers()
			})
			for _, s := range traced.samples {
				if s.Err != "" {
					t.Errorf("traced run: op failed: %s", s.Err)
				}
			}
			if len(traced.errs) > 0 {
				t.Errorf("traced run errors: %v", traced.errs)
			}
			for _, name := range []string{
				"lb.run_s", "lb.gossip_epoch_s", "lb.transfer_epoch_s", "lb.commit_epoch_s", "lb.iter_collectives_s",
				"lb.invocations", "core.gossip_msgs", "core.transfers", "amt.handler_calls", "amt.epochs",
				"amt.collectives", "amt.migrations", "termination.token_rounds", "comm.msgs_total",
				"comm.msgs_user", "comm.bytes_total", "obs.events_per_op", "obs.trace_overhead_ratio",
			} {
				if !(layers[name] > 0) {
					t.Errorf("%s = %g, want a positive value", name, layers[name])
				}
			}
			if share := layers["lb.accounted_share"]; share < 0.5 || share > 1 {
				t.Errorf("lb.accounted_share = %g", share)
			}
			if w.Unix && !(layers["wire.frames_out"] > 0 && layers["wire.bytes_per_frame"] > 0) {
				t.Errorf("socket workload shipped no frames: %v", layers["wire.frames_out"])
			}
			if !w.Unix && layers["wire.frames_out"] != 0 {
				t.Errorf("memory workload reports %g wire frames", layers["wire.frames_out"])
			}
			if w.Service {
				if got := layers["serve.fires"] + layers["serve.skips"]; got != float64(w.Phases) {
					t.Errorf("fires + skips = %g, want %d", got, w.Phases)
				}
				if !(layers["serve.phase_s_p50"] > 0) {
					t.Errorf("serve.phase_s_p50 = %g", layers["serve.phase_s_p50"])
				}
			}
			if w.Observed {
				if want := float64(1 + w.Trials*w.Iters + 1); layers["obs.frames_per_op"] != want {
					t.Errorf("obs.frames_per_op = %g, want %g", layers["obs.frames_per_op"], want)
				}
				if !(layers["obs.observe_overhead_ratio"] > 0) {
					t.Errorf("obs.observe_overhead_ratio = %g", layers["obs.observe_overhead_ratio"])
				}
			}
			for name := range layers {
				known := false
				for _, def := range perLayer {
					known = known || def.Name == name
				}
				if !known {
					t.Errorf("traced run reports %s, which the per-layer table does not list", name)
				}
			}
			checkChromeTrace(t, filepath.Join(out, w.Name+".trace.json"))
		})
	}
}

// checkChromeTrace holds the trace file to what Perfetto needs: it
// parses, and begin and end events balance.
func checkChromeTrace(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Ph string  `json:"ph"`
			TS float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	open := 0
	for _, e := range trace.TraceEvents {
		switch e.Ph {
		case "B":
			open++
		case "E":
			open--
		}
		if e.TS < 0 || open < 0 {
			t.Fatalf("%s: unbalanced or negative-time event", path)
		}
	}
	if open != 0 || len(trace.TraceEvents) < 10 {
		t.Errorf("%s: %d events, %d spans left open", path, len(trace.TraceEvents), open)
	}
}

// The output checks must notice a wrong result, not only pass a right one.
func TestChecksCatchWrongOutputs(t *testing.T) {
	w := toy(wlB)
	in, err := w.input(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	good := func() *opResult {
		res, err := w.runOp(in, attach{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.check(in, res, attach{}); err != nil {
			t.Fatalf("a correct op fails its checks: %v", err)
		}
		return res
	}
	ref := good()
	loaded := func(res *opResult) int {
		for r, objs := range res.placed {
			if len(objs) > 1 {
				return r
			}
		}
		t.Fatal("no rank holds two objects")
		return 0
	}

	for _, tc := range []struct {
		name   string
		break_ func(res *opResult)
		want   string
	}{
		{"lost object", func(res *opResult) {
			r := loaded(res)
			res.placed[r] = res.placed[r][1:]
		}, "lost"},
		{"object on two ranks", func(res *opResult) {
			r := loaded(res)
			res.placed[(r+1)%w.Ranks] = append(res.placed[(r+1)%w.Ranks], res.placed[r][0])
		}, "two ranks"},
		{"load changed in flight", func(res *opResult) {
			res.placed[loaded(res)][0].state += 0.5
		}, "carries load"},
		{"reported imbalance is not the placement's", func(res *opResult) {
			res.dist.FinalImbalance *= 1.001
			for i := range res.perRank {
				res.perRank[i].FinalImbalance = res.dist.FinalImbalance
			}
		}, "placement has imbalance"},
		{"ranks disagree", func(res *opResult) {
			res.perRank[3].FinalImbalance++
		}, "disagrees"},
		{"differs from the reference", func(res *opResult) {
			in.ref = ref
			res.dist.GossipMessages++
		}, "differs from the reference"},
	} {
		res := good()
		tc.break_(res)
		err := w.check(in, res, attach{})
		in.ref = nil
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: check returned %v, want an error mentioning %q", tc.name, err, tc.want)
		}
	}
}
