package main

import (
	"fmt"
	"path/filepath"
	"runtime"
)

// opSample is what one op contributes to the end-to-end metrics. The
// process that runs the ops streams one sample per op to the process
// that aggregates them, so a run killed by the watchdog still reports
// the ops it finished.
type opSample struct {
	// Role says how the op counts: "warmup" and "reference" ops are not
	// measured; "measured" ops feed the end-to-end metrics; a "setup" op
	// stops where the timed window would open and feeds setup_s only;
	// "base" and "traced" ops belong to a traced run.
	Role       string    `json:"role"`
	SetupS     float64   `json:"setup_s"`
	WallS      float64   `json:"wall_s"`
	CPUS       float64   `json:"cpu_s"`
	AllocMB    float64   `json:"alloc_mb"`
	Msgs       int64     `json:"msgs"`
	IterS      []float64 `json:"iter_s,omitempty"`
	FinalImb   float64   `json:"final_imbalance"`
	Migrations int       `json:"migrations"`
	// KernelS is the mean time of the speed kernel sampled around the op,
	// over KernelN samples; Scale = refKernelSeconds / KernelS turns the
	// op's durations into seconds at reference speed (speed.go).
	KernelS float64 `json:"kernel_s"`
	KernelN int     `json:"kernel_n"`
	Scale   float64 `json:"scale"`
	Err     string  `json:"err,omitempty"`
}

// record is one line of the stream between the two processes.
type record struct {
	Op     *opSample          `json:"op,omitempty"`
	Layers map[string]float64 `json:"layers,omitempty"`
	Alive  bool               `json:"alive,omitempty"` // progress only; resets the watchdog
	Done   bool               `json:"done,omitempty"`
	Err    string             `json:"err,omitempty"`
}

// runner executes the ops of one workload run and emits their samples.
type runner struct {
	w      *workloadDef
	seed   int64
	inputs map[int]*input // by input index; see input()
	emit   func(record)
	outDir string
	ops    uint64 // ops started; makes each socket cluster's job id unique
}

// slot is the index of the input the run's i-th op works on: a workload
// with a pool cycles through it, one without gives every op its own.
func (r *runner) slot(i int) int {
	if r.w.Pool > 0 {
		return i % r.w.Pool
	}
	return i
}

// input returns the input of the run's i-th op, keeping the ones that
// are used again: a pool's, and those that carry a reference.
func (r *runner) input(i int) (*input, error) {
	w := r.w
	i = r.slot(i)
	if in := r.inputs[i]; in != nil {
		return in, nil
	}
	in, err := w.input(r.seed, i)
	if err == nil && (w.Pool > 0 || i < w.Refs) {
		r.inputs[i] = in
	}
	return in, err
}

// op runs one op on input idx, checks its outputs and emits its sample.
// The returned result is nil when the op or a check failed.
func (r *runner) op(role string, idx int, at attach) *opResult {
	w := r.w
	r.ops++
	s := &opSample{Role: role}
	in, err := r.input(idx)
	var res *opResult
	if err == nil {
		runtime.GC() // the kernel allocates; keep the last op's garbage out of its first sample
		stop := sampleSpeed()
		res, err = w.runOp(in, at, uint64(r.seed)<<20+r.ops)
		kernel := stop()
		s.KernelS, s.KernelN = mean(kernel), len(kernel)
		s.Scale = refKernelSeconds / s.KernelS
		if res != nil {
			res.cpuS -= sum(kernel[1:]) // the samples taken while the op ran are not its work
		}
	}
	if err == nil && !at.setupOnly {
		err = w.check(in, res, at)
	}
	if err != nil {
		s.Err = fmt.Sprintf("%s op %d: %v", role, r.ops, err)
		r.emit(record{Op: s})
		return nil
	}
	s.SetupS, s.WallS, s.CPUS, s.AllocMB, s.Msgs = res.setupS, res.wallS, res.cpuS, res.allocMB, res.msgs
	s.Migrations = res.migrations
	if w.Service {
		s.FinalImb = serviceFinalImbalance(res.svc)
		s.IterS = []float64{res.wallS / float64(w.phases(at))} // the service's unit of work is a phase
	} else {
		s.FinalImb = res.dist.FinalImbalance
		for _, h := range res.dist.History {
			s.IterS = append(s.IterS, h.ElapsedSeconds)
		}
	}
	// The per-rank snapshots served the checks; a kept reference needs
	// only the rank-0 result.
	res.created, res.placed, res.perRank = nil, nil, nil
	r.emit(record{Op: s})
	return res
}

// reference makes sure that input idx, if it is one of the workload's
// first Refs inputs, has the result its ops are compared against: an
// unobserved op on the observed workload, a memory-transport op on the
// socket workloads. A reference costs as much as an op, so only the
// first inputs of a run get one; every op still passes the checks that
// need no reference. It returns the reference op if it ran one now.
func (r *runner) reference(idx int) *opResult {
	if r.slot(idx) >= r.w.Refs {
		return nil
	}
	in, err := r.input(idx)
	if err != nil || in.ref != nil {
		return nil
	}
	in.ref = r.op("reference", idx, attach{memory: r.w.Unix})
	return in.ref
}

// measuredOp is one op as the end-to-end metrics define it. On a pooled
// workload an input without a reference is compared with its own first
// run, which pins run-to-run identity on the transport under test.
func (r *runner) measuredOp(role string, idx int, tracer *foldTracer) *opResult {
	res := r.op(role, idx, attach{stream: r.w.Observed, tracer: tracer})
	if in := r.inputs[r.slot(idx)]; res != nil && r.w.Pool > 0 && in.ref == nil {
		in.ref = res
	}
	return res
}

// minSetups is the least number of set-up samples behind a run's
// setup_s. Set-up is short and, at 4096 rank goroutines on two cores,
// varies by a factor of two from one time to the next; the median of the
// two ops a paper-scale run fits is not a number.
const minSetups = 25

// measure is a measured run: a warm-up, then ops back to back on fresh
// runtimes until their timed windows add up to the budget, then set-ups
// alone until there are minSetups samples of it. No tracer, metrics or
// stream is attached unless the workload itself observes.
func (r *runner) measure(seconds float64) {
	r.op("warmup", 0, attach{warmup: true, stream: r.w.Observed})
	var walls []float64
	spent := 0.0
	// Stop before the op that would overrun the budget, but never before
	// MinOps: a run of one op has no median.
	for i := 0; i < r.w.MinOps || (len(walls) > 0 && spent+median(walls) <= seconds); i++ {
		r.reference(i)
		res := r.measuredOp("measured", i, nil)
		if res == nil {
			if i >= r.w.MinOps {
				break // keep a failing program from looping forever
			}
			continue
		}
		walls = append(walls, res.wallS)
		spent += res.wallS
	}
	for i := len(walls); i < minSetups; i++ {
		r.op("setup", i, attach{setupOnly: true, stream: r.w.Observed})
	}
}

// tracedLayers runs the ops of a traced run — untraced ops for the base
// line, then the same ops under the folding tracer — and returns the
// per-layer metrics they yield. Rank 0's spans of the last traced op are
// written as a Chrome trace.
func (r *runner) tracedLayers() map[string]float64 {
	w := r.w
	r.op("warmup", 0, attach{warmup: true, stream: w.Observed})
	var baseWall, unobservedWall, tracedWall []float64
	for i := 0; i < w.BaseOps; i++ {
		// On the observed workload the reference is the unobserved op, so
		// the pairs interleave and drift hits both halves alike.
		if ref := r.reference(i); ref != nil && w.Observed {
			unobservedWall = append(unobservedWall, ref.wallS)
		}
		if res := r.measuredOp("base", i, nil); res != nil {
			baseWall = append(baseWall, res.wallS)
		}
	}
	var ops []tracedOp
	var last *foldTracer
	for i := 0; i < w.TracedOps; i++ {
		r.reference(i)
		tr := newFoldTracer(w.Ranks)
		if res := r.measuredOp("traced", i, tr); res != nil {
			tracedWall = append(tracedWall, res.wallS)
			ops = append(ops, tracedOp{res: res, folded: tr.fold(), tree: buildSpanTree(tr.rank0())})
			last = tr
		}
	}
	layers := w.layerMetrics(ops, baseWall, tracedWall)
	if u := median(unobservedWall); u > 0 {
		layers["obs.observe_overhead_ratio"] = median(baseWall) / u
	}
	if last != nil {
		path := filepath.Join(r.outDir, w.Name+".trace.json")
		if err := writeChromeTrace(path, last.rank0()); err != nil {
			r.emit(record{Err: fmt.Sprintf("writing %s: %v", path, err)})
		}
	}
	return layers
}

// trace is a traced run: the traced ops, then every layer's probes.
func (r *runner) trace() {
	layers := r.tracedLayers()
	probes, err := runProbes(r.seed, func() { r.emit(record{Alive: true}) })
	if err != nil {
		r.emit(record{Err: fmt.Sprintf("probe: %v", err)})
	}
	for k, v := range probes {
		layers[k] = v
	}
	r.emit(record{Layers: layers})
}

// execute runs one workload run in this process and emits its records.
func execute(w *workloadDef, seed int64, seconds float64, traced bool, outDir string, emit func(record)) {
	r := &runner{w: w, seed: seed, inputs: map[int]*input{}, emit: emit, outDir: outDir}
	if traced {
		r.trace()
	} else {
		r.measure(seconds)
	}
	emit(record{Done: true})
}
