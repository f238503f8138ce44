package tempered

import (
	"reflect"
	"testing"
	"time"

	"temperedlb/internal/amt"
	"temperedlb/internal/comm"
	"temperedlb/internal/comm/wire"
	"temperedlb/internal/core"
)

// The wire codec for the test object state, in the application id band,
// so migrations can cross process-style transport boundaries and every
// test's MigrationBytes is 10 per object whichever tests ran before it.
// The Blob padding is never written by any test, so only Load crosses
// the wire and the decoded state is equal.
func init() {
	wire.RegisterPayload(100,
		func(e *wire.Encoder, s *colorState) { e.F64(s.Load) },
		func(d *wire.Decoder) *colorState { return &colorState{Load: d.F64()} })
}

// crossTransportConfig pins Rounds to 1: single-round gossip knowledge
// is a pure canonicalized merge, independent of arrival order, whereas
// multi-round epidemic forwarding suppresses re-sends based on what
// arrived first and so legitimately varies across transports. Every
// other knob matches the chaos suite's distConfig.
func crossTransportConfig() core.Config {
	cfg := distConfig()
	cfg.Rounds = 1
	return cfg
}

// runOnTransport executes the standard chaos workload (hot ranks own
// all objects, dyadic loads) on the named transport, under the fault
// plan when there is one, and returns the per-rank results. For "unix"
// and "tcp" the job runs as a 3-node cluster.
func runOnTransport(t *testing.T, transport string, nRanks, hot, objsPerHot int, sp *comm.FaultSpec) []DistResult {
	t.Helper()
	return runNodes(t, transport, 3, nRanks, hot, objsPerHot, func(_ int, rt *amt.Runtime) {
		if sp != nil {
			if err := rt.SetFaults(*sp); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// runNodes is runOnTransport with the node count and the per-node
// runtime set-up chosen by the caller. The job is stood up by amt.Launch:
// on "unix" and "tcp" a cluster of partial networks joined by real
// sockets, one runtime per node exactly as `lbplay -node` hosts one per
// process; on "memory" the single node 0. A job that has not finished
// after a minute is reported as deadlocked.
func runNodes(t *testing.T, transport string, nodes, nRanks, hot, objsPerHot int, setup func(node int, rt *amt.Runtime)) []DistResult {
	t.Helper()
	cfg := crossTransportConfig()

	job, err := amt.Launch(transport, nRanks, nodes, 0xC0FFEE)
	if err != nil {
		t.Fatalf("%s job: %v", transport, err)
	}
	defer job.Close()
	for node, rt := range job.Runtimes {
		setup(node, rt)
	}

	results := make([]DistResult, nRanks)
	done := make(chan error, 1)
	go func() {
		done <- job.Run(func(rt *amt.Runtime) func(*amt.Context) error {
			h := RegisterHandlers(rt, 100)
			return func(rc *amt.Context) (err error) {
				loads := make(map[amt.ObjectID]float64)
				if int(rc.Rank()) < hot {
					for i := 0; i < objsPerHot; i++ {
						l := dyadicLoad(int(rc.Rank()), i, objsPerHot)
						id := rc.CreateObject(&colorState{Load: l})
						loads[id] = l
					}
				}
				rc.Barrier()
				results[rc.Rank()], err = RunDistributed(rc, h, cfg, loads)
				return err
			}
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Minute):
		t.Fatalf("%s: %d-node job still running after a minute (deadlocked collective?)", transport, nodes)
	}
	return results
}

// TestCrossTransportIdentity is the tentpole acceptance test: the same
// seed and configuration must produce a bit-identical DistResult on the
// in-memory, Unix-socket and TCP transports — with and without a fault
// plan — because the protocol stack cannot observe the substrate. Only
// wall-clock fields may differ (StripTiming removes them).
func TestCrossTransportIdentity(t *testing.T) {
	const nRanks, hot, objsPerHot = 10, 2, 12
	faults := &comm.FaultSpec{}
	*faults, _ = comm.ParseFaultSpec("drop=0.05,dup=0.05,delay=500us,seed=42")

	for _, tc := range []struct {
		name string
		sp   *comm.FaultSpec
	}{
		{"faultfree", nil},
		{"faulted", faults},
	} {
		t.Run(tc.name, func(t *testing.T) {
			baseline := runOnTransport(t, "memory", nRanks, hot, objsPerHot, tc.sp)
			for _, transport := range []string{"unix", "tcp"} {
				got := runOnTransport(t, transport, nRanks, hot, objsPerHot, tc.sp)
				for r := range baseline {
					want, have := baseline[r].StripTiming(), got[r].StripTiming()
					if !reflect.DeepEqual(want, have) {
						t.Errorf("%s: rank %d diverges from memory transport:\nmemory: %+v\n%s: %+v",
							transport, r, want, transport, have)
					}
				}
			}
		})
	}
}

// TestFollowedWaveIdentity: who makes a token hop cannot change a result.
// On 64 ranks over two unix-socket nodes every wave leaves its goroutine
// twice — the hops 0→63 and 32→31 cross the socket and the wave resumes
// on the other node — where in memory one goroutine may follow it all the
// way round; and on one rank the ring predecessor is the rank itself.
func TestFollowedWaveIdentity(t *testing.T) {
	const nRanks, hot, objsPerHot = 64, 4, 12
	noSetup := func(int, *amt.Runtime) {}
	baseline := runNodes(t, "memory", 1, nRanks, hot, objsPerHot, noSetup)
	got := runNodes(t, "unix", 2, nRanks, hot, objsPerHot, noSetup)
	for r := range baseline {
		if want, have := baseline[r].StripTiming(), got[r].StripTiming(); !reflect.DeepEqual(want, have) {
			t.Errorf("rank %d diverges from the memory transport:\nmemory: %+v\nunix: %+v", r, want, have)
		}
	}
	one := runNodes(t, "memory", 1, 1, 1, objsPerHot, noSetup)[0]
	if one.Migrations != 0 || one.FinalImbalance != 0 {
		t.Errorf("one rank: %d migrations, imbalance %v, want none", one.Migrations, one.FinalImbalance)
	}
}
