package serve

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"temperedlb/internal/amt"
	"temperedlb/internal/core"
	"temperedlb/internal/lb/tempered"
	"temperedlb/internal/obs"
)

func serveConfig(kind Kind) Config {
	return Config{
		Scenario: Spec{Kind: kind, Ranks: 6, Phases: 18, Items: 36, Seed: 11},
		Trigger:  TriggerSpec{Family: "forecast", Headroom: 1},
	}
}

// runService executes one service run on the named transport and
// returns every rank's Result; see runRanks for the transports.
func runService(t *testing.T, transport string, nodes int, cfg Config, streams ...*obs.Stream) []Result {
	t.Helper()
	results := make([]Result, cfg.Scenario.Ranks)
	runRanks(t, transport, nodes, cfg.Scenario.Ranks, streams, func(rc *amt.Context, h *tempered.Handlers) {
		res, err := Run(rc, h, cfg)
		if err != nil {
			t.Errorf("rank %d: %v", rc.Rank(), err)
			return
		}
		results[rc.Rank()] = res
	})
	return results
}

// runRanks runs body on every rank of an n-rank job with the LB handlers
// registered. The job is stood up by amt.Launch, exactly as cmd/lbserve
// hosts it: for "unix" and "tcp" an in-process cluster of `nodes` partial
// networks joined by real sockets, one runtime per node. Node i is given
// streams[i] when there is one.
func runRanks(t *testing.T, transport string, nodes, n int, streams []*obs.Stream, body func(*amt.Context, *tempered.Handlers)) {
	t.Helper()
	job, err := amt.Launch(transport, n, nodes, 0x5e12e)
	if err != nil {
		t.Fatalf("%s job: %v", transport, err)
	}
	defer job.Close()
	for node, rt := range job.Runtimes {
		if node < len(streams) {
			rt.SetStream(streams[node])
		}
	}
	err = job.Run(func(rt *amt.Runtime) func(*amt.Context) error {
		h := tempered.RegisterHandlers(rt, 100)
		return func(rc *amt.Context) error { body(rc, h); return nil }
	})
	if err != nil {
		t.Fatal(err)
	}
}

// stripLocal zeroes the one legitimately rank-local field so results
// can be compared across ranks.
func stripLocal(r Result) Result {
	r.LocalMigrations = 0
	return r
}

// TestServiceRankAgreement: every rank of one run must produce the
// same trigger-decision log and cost accounting — the collective
// agreement the whole design rests on.
func TestServiceRankAgreement(t *testing.T) {
	for _, kind := range []Kind{KindBurst, KindChurn} {
		results := runService(t, "memory", 1, serveConfig(kind))
		want := stripLocal(results[0])
		if want.Fires == 0 {
			t.Errorf("%s: trigger never fired; scenario too tame to test agreement", kind)
		}
		if want.AssignFP == 0 {
			t.Errorf("%s: zero assignment fingerprint", kind)
		}
		for r := 1; r < len(results); r++ {
			if !reflect.DeepEqual(stripLocal(results[r]), want) {
				t.Errorf("%s: rank %d disagrees with rank 0", kind, r)
			}
		}
	}
}

// TestServiceCrossTransportIdentity is the tentpole acceptance test:
// the same spec and seed must produce a bit-identical trigger log and
// result on the in-memory transport and on Unix/TCP socket clusters at
// two different node counts.
func TestServiceCrossTransportIdentity(t *testing.T) {
	cfg := serveConfig(KindBurst)
	want := stripLocal(runService(t, "memory", 1, cfg)[0])

	for _, tc := range []struct {
		transport string
		nodes     int
	}{
		{"unix", 2}, {"unix", 3}, {"tcp", 2},
	} {
		results := runService(t, tc.transport, tc.nodes, cfg)
		for r := range results {
			if got := stripLocal(results[r]); !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%d nodes: rank %d result differs from memory run", tc.transport, tc.nodes, r)
				break
			}
		}
	}
}

// TestServiceWatchedFromOneNode: a stream on node 1 of a two-node job —
// a node that does not host rank 0 — changes no rank's result and
// receives one frame per phase whose statistics are the phase summary's
// (plus the frames of every invocation the trigger fired).
func TestServiceWatchedFromOneNode(t *testing.T) {
	cfg := serveConfig(KindBurst)
	want := stripLocal(runService(t, "memory", 1, cfg)[0])
	stream := obs.NewStream(4096)
	results := runService(t, "unix", 2, cfg, nil, stream)
	for r := range results {
		if got := stripLocal(results[r]); !reflect.DeepEqual(got, want) {
			t.Errorf("rank %d: result differs from the unwatched memory run", r)
		}
	}
	phases, lb := 0, 0
	for _, f := range stream.Frames() {
		if f.Source != "serve" {
			lb++
			continue
		}
		row := want.Rows[f.Step]
		if f.Step != phases || f.Ranks != cfg.Scenario.Ranks || len(f.Loads) != f.Ranks ||
			f.MaxLoad != row.Max || f.AvgLoad != row.Avg {
			t.Errorf("phase frame %d: %+v does not describe row %+v", phases, f, row)
		}
		phases++
	}
	lbCfg := cfg.withDefaults().LB
	if phases != want.Phases || lb != want.Fires*(2+lbCfg.Trials*lbCfg.Iterations) {
		t.Errorf("stream holds %d phase frames and %d balancer frames over %d phases and %d fires",
			phases, lb, want.Phases, want.Fires)
	}
}

// TestServiceLogDeterministic: WriteLog output is byte-identical across
// two independent runs (the serve-smoke contract, in-process).
func TestServiceLogDeterministic(t *testing.T) {
	cfg := serveConfig(KindBurst)
	var a, b bytes.Buffer
	if err := WriteLog(&a, cfg, runService(t, "memory", 1, cfg)[0]); err != nil {
		t.Fatal(err)
	}
	if err := WriteLog(&b, cfg, runService(t, "memory", 1, cfg)[0]); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two identical runs rendered different logs")
	}
	if a.Len() == 0 {
		t.Error("empty log")
	}
}

// TestServiceMigratedWorkFollowsObject: after invocations move objects
// off their homes, total observed work per phase must still equal the
// scenario's alive-item load sum — work follows the object, wherever
// it lives.
func TestServiceMigratedWorkFollowsObject(t *testing.T) {
	cfg := serveConfig(KindBurst)
	cfg.Trigger = TriggerSpec{Family: "every", K: 2}
	results := runService(t, "memory", 1, cfg)
	if sumMigrations(results) == 0 {
		t.Fatal("no migrations at all; test exercises nothing")
	}
	sc, _ := NewScenario(cfg.Scenario.withDefaults())
	for p, row := range results[0].Rows {
		want := 0.0
		for i := 0; i < sc.NumItems(); i++ {
			want += sc.Load(i, p)
		}
		got := row.Avg * float64(cfg.Scenario.Ranks)
		if diff := got - want; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("phase %d: observed total %g, scenario total %g", p, got, want)
		}
	}
}

// TestForecastBeatsAlwaysOnBurst: on a bursty workload the forecast
// criterion must undercut always-LB on total cost (waste + LB paid) —
// the acceptance claim the EXPERIMENTS entry documents.
func TestForecastBeatsAlwaysOnBurst(t *testing.T) {
	cfg := serveConfig(KindBurst)
	cfg.Scenario.Phases = 30

	always := cfg
	always.Trigger = TriggerSpec{Family: "every", K: 1}
	alwaysRes := runService(t, "memory", 1, always)[0]

	forecast := cfg
	forecast.Trigger = TriggerSpec{Family: "forecast", Headroom: 1}
	forecastRes := runService(t, "memory", 1, forecast)[0]

	if forecastRes.Fires >= alwaysRes.Fires {
		t.Errorf("forecast fired %d times, always %d — no invocation savings", forecastRes.Fires, alwaysRes.Fires)
	}
	if forecastRes.TotalCost >= alwaysRes.TotalCost {
		t.Errorf("forecast total cost %.2f not below always-LB %.2f (waste %.2f vs %.2f, paid %.2f vs %.2f)",
			forecastRes.TotalCost, alwaysRes.TotalCost,
			forecastRes.TotalWaste, alwaysRes.TotalWaste,
			forecastRes.LBPaid, alwaysRes.LBPaid)
	}
}

// TestServiceRejectsBadConfig covers the early-error paths.
func TestServiceRejectsBadConfig(t *testing.T) {
	rt := amt.New(4)
	h := tempered.RegisterHandlers(rt, 100)
	rt.Run(func(rc *amt.Context) {
		cfg := serveConfig(KindBurst) // scenario says 6 ranks, runtime has 4
		if _, err := Run(rc, h, cfg); err == nil {
			t.Error("rank mismatch accepted")
		}
		cfg = serveConfig(KindBurst)
		cfg.Scenario.Ranks = 4
		cfg.Trigger = TriggerSpec{Family: "nope"}
		if _, err := Run(rc, h, cfg); err == nil {
			t.Error("unknown trigger accepted")
		}
	})
}

// TestServiceRejectsLBConfigUpFront: a balancer configuration the
// distributed protocol refuses — an invalid value — is the same named
// error on every rank before phase 0 creates its first object, on
// memory and across two socket-joined nodes, instead of surfacing at
// whichever phase first fires the trigger.
func TestServiceRejectsLBConfigUpFront(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(*core.Config)
	}{
		{"trials", func(c *core.Config) { c.Trials = 0 }},
	} {
		cfg := serveConfig(KindBurst)
		cfg.LB = core.Tempered()
		cfg.LB.Rounds = 1
		tc.set(&cfg.LB)
		n := cfg.Scenario.Ranks
		for _, transport := range []string{"memory", "unix"} {
			errs, objects := make([]string, n), make([]int, n)
			runRanks(t, transport, 2, n, nil, func(rc *amt.Context, h *tempered.Handlers) {
				if _, err := Run(rc, h, cfg); err != nil {
					errs[rc.Rank()] = err.Error()
				}
				objects[rc.Rank()] = len(rc.LocalObjects())
			})
			if !strings.HasPrefix(errs[0], "serve: LB configuration: ") || !strings.Contains(errs[0], tc.name) {
				t.Errorf("%s on %s: rank 0 returned %q", tc.name, transport, errs[0])
			}
			for r := range errs {
				if errs[r] != errs[0] || objects[r] != 0 {
					t.Errorf("%s on %s: rank %d returned %q with %d objects created, rank 0 %q",
						tc.name, transport, r, errs[r], objects[r], errs[0])
				}
			}
		}
	}
}

func sumMigrations(rs []Result) int {
	n := 0
	for _, r := range rs {
		n += r.LocalMigrations
	}
	return n
}
