// pic2d is a miniature particle-in-cell application running for real on
// the AMT runtime: the domain is overdecomposed into a Collection of
// color objects that own their particles, particle exchange between
// colors travels as object-directed active messages, per-phase work is
// instrumented and smoothed by a persistence-based LoadModel, and the
// fully distributed TemperedLB periodically migrates colors between
// ranks — the EMPIRE pattern of the paper's §VI at laptop scale.
//
//	go run ./examples/pic2d
//
// Pass -trace (and/or -metrics) to watch the protocol work: the whole
// run — phases, exchange epochs, gossip, migrations, termination tokens
// — is exported as a Chrome trace with one track per rank, loadable in
// ui.perfetto.dev.
//
//	go run ./examples/pic2d -trace pic2d.trace.json -metrics pic2d.prom
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"sort"
	"sync"

	"temperedlb"
)

// Domain: an 8x4 grid of colors over the unit square, homed 4 colors per
// rank on 8 ranks. Colors are the migratable tasks.
const (
	colorsX, colorsY = 8, 4
	numRanks         = 8
	steps            = 60
	lbEvery          = 20
	particlesInit    = 4000
	dt               = 1.0 / steps
	colorCollection  = 1
)

// colorAt maps a position to its color index — static knowledge every
// rank shares, like a mesh coloring.
func colorAt(x, y float64) int {
	cx := int(x * colorsX)
	cy := int(y * colorsY)
	if cx >= colorsX {
		cx = colorsX - 1
	}
	if cy >= colorsY {
		cy = colorsY - 1
	}
	return cy*colorsX + cx
}

// color is the migratable element state: the particles it owns.
type color struct {
	Index     int
	Particles []particle
}

type particle struct{ X, Y, VX, VY float64 }

// Wire codecs for the particle exchange payload and the migrating color
// state, in the application band (≥64), so the example runs unchanged on
// a socket transport and its byte metrics weigh what would cross one.
// Field order is the wire format.
func init() {
	temperedlb.RegisterWirePayload(64, putParticles, getParticles)
	temperedlb.RegisterWirePayload(65,
		func(e *temperedlb.WireEncoder, c *color) {
			e.I64(int64(c.Index))
			putParticles(e, c.Particles)
		},
		func(d *temperedlb.WireDecoder) *color {
			return &color{Index: int(d.I64()), Particles: getParticles(d)}
		})
}

func putParticles(e *temperedlb.WireEncoder, v []particle) {
	e.Rows(len(v), v == nil, func(lo, hi int) {
		for _, p := range v[lo:hi] {
			e.F64(p.X)
			e.F64(p.Y)
			e.F64(p.VX)
			e.F64(p.VY)
		}
	})
}

func getParticles(d *temperedlb.WireDecoder) []particle {
	n, isNil := d.Rows(32)
	if isNil {
		return nil
	}
	out := make([]particle, n)
	for i := range out {
		out[i].X = d.F64()
		out[i].Y = d.F64()
		out[i].VX = d.F64()
		out[i].VY = d.F64()
	}
	return out
}

const (
	hExchange temperedlb.HandlerID = iota // particles entering a color
	lbBase                                // +1, +2 claimed by the balancer
)

func main() {
	traceOut := flag.String("trace", "", "write a Chrome trace_event JSON of the run (open in Perfetto)")
	metricsOut := flag.String("metrics", "", "write runtime metrics in Prometheus text format")
	seedFlag := flag.Int64("seed", 99, "base seed for the per-rank particle streams")
	flag.Parse()

	var opts []temperedlb.RuntimeOption
	var rec *temperedlb.TraceRecorder
	if *traceOut != "" {
		rec = temperedlb.NewTraceRecorder()
		opts = append(opts, temperedlb.WithTracer(rec))
	}
	if *metricsOut != "" {
		opts = append(opts, temperedlb.WithMetrics())
	}
	rt := temperedlb.NewRuntime(numRanks, opts...)
	lbh := temperedlb.RegisterLBHandlers(rt, lbBase)
	rt.NameHandler(hExchange, "pic2d.exchange")

	rt.RegisterObject(hExchange, func(rc *temperedlb.RankContext, obj temperedlb.ObjectID, state any, from temperedlb.Rank, data any) {
		c := state.(*color)
		c.Particles = append(c.Particles, data.([]particle)...)
	})

	var report sync.Mutex
	lbRuns := 0

	rt.Run(func(rc *temperedlb.RankContext) {
		rng := rand.New(rand.NewSource(*seedFlag + int64(rc.Rank())))
		// The collection gives every rank the same index→object mapping
		// with no communication.
		colors := rc.CreateCollection(colorCollection, colorsX*colorsY,
			func(i int) any { return &color{Index: i} })
		model := temperedlb.NewLoadModel(0.7) // smoothed persistence
		rc.Barrier()

		if rc.Rank() == 0 {
			// All particles start in the lower-left hot spot, inside
			// rank 0's colors.
			c0, _ := rc.ObjectState(colors.Element(0))
			for i := 0; i < particlesInit; i++ {
				c0.(*color).Particles = append(c0.(*color).Particles, particle{
					X: rng.Float64() * 0.1, Y: rng.Float64() * 0.2,
					VX: 0.3 + rng.NormFloat64()*0.2, VY: 0.2 + rng.NormFloat64()*0.2,
				})
			}
		}
		rc.Barrier()

		for step := 1; step <= steps; step++ {
			// Phase: push the particles of every local color; work is
			// proportional to the particles touched (virtual time).
			rc.PhaseBegin()
			type outgoing struct {
				idx  int
				part []particle
			}
			var sends []outgoing
			for _, idx := range colors.LocalIndices(rc) {
				id := colors.Element(idx)
				st, _ := rc.ObjectState(id)
				c := st.(*color)
				kept := c.Particles[:0]
				moved := map[int][]particle{}
				for _, p := range c.Particles {
					p.X += p.VX * dt
					p.Y += p.VY * dt
					// Reflecting walls.
					if p.X < 0 {
						p.X, p.VX = -p.X, -p.VX
					}
					if p.X > 1 {
						p.X, p.VX = 2-p.X, -p.VX
					}
					if p.Y < 0 {
						p.Y, p.VY = -p.Y, -p.VY
					}
					if p.Y > 1 {
						p.Y, p.VY = 2-p.Y, -p.VY
					}
					if tgt := colorAt(p.X, p.Y); tgt != c.Index {
						moved[tgt] = append(moved[tgt], p)
					} else {
						kept = append(kept, p)
					}
				}
				c.Particles = kept
				rc.RecordWork(id, float64(len(kept))+1)
				// Drain moved in sorted target order: sends is later
				// sorted by target with a non-stable sort, so entries
				// sharing a target would otherwise keep map order.
				tgts := make([]int, 0, len(moved))
				for tgt := range moved {
					tgts = append(tgts, tgt)
				}
				sort.Ints(tgts)
				for _, tgt := range tgts {
					sends = append(sends, outgoing{tgt, moved[tgt]})
				}
			}
			stats := rc.PhaseEnd()
			model.Observe(stats)

			// Exchange epoch: deliver migrating particles; termination
			// detection guarantees every color saw its arrivals before
			// the next step.
			sort.Slice(sends, func(i, j int) bool { return sends[i].idx < sends[j].idx })
			rc.Epoch(func() {
				for _, s := range sends {
					colors.Send(rc, s.idx, hExchange, s.part)
				}
			})

			if step%lbEvery == 0 {
				cfg := temperedlb.Tempered()
				cfg.Trials, cfg.Iterations, cfg.Rounds, cfg.Fanout = 3, 4, 4, 3
				cfg.Seed = int64(step)
				// Predict next-phase loads for the colors still here.
				loads := map[temperedlb.ObjectID]float64{}
				for _, idx := range colors.LocalIndices(rc) {
					id := colors.Element(idx)
					loads[id] = model.Predict(id)
				}
				res, err := temperedlb.RunDistributedLB(rc, lbh, cfg, loads)
				if err != nil {
					log.Fatal(err)
				}
				// Predictions for migrated-away colors belong to their
				// new hosts now.
				for id := range loads {
					if !rc.HasObject(id) {
						model.Forget(id)
					}
				}
				if rc.Rank() == 0 {
					report.Lock()
					lbRuns++
					report.Unlock()
					fmt.Printf("step %3d: LB brought I from %.3f to %.3f (%d colors migrated off rank 0)\n",
						step, res.InitialImbalance, res.FinalImbalance, res.Migrations)
				}
			}
		}
		rc.Barrier()

		report.Lock()
		fmt.Printf("rank %d ends with %d colors\n", rc.Rank(), len(colors.LocalIndices(rc)))
		report.Unlock()
	})

	if lbRuns == 0 {
		log.Fatal("no LB invocations ran")
	}
	fmt.Println("done: load balancing tracked the drifting particle cloud")

	if rec != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := temperedlb.WriteChromeTrace(f, rec.Events()); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %d trace events to %s — open it at ui.perfetto.dev\n", len(rec.Events()), *traceOut)
	}
	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := temperedlb.WritePrometheus(f, rt.Metrics()); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote metrics to %s\n", *metricsOut)
	}
}
