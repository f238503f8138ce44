// Command bench is the repository's benchmark: four workloads driven
// through the shipped public functions, nine end-to-end metrics with
// fixed regression bounds, and a traced run that breaks each workload
// down by layer. See README.md in this directory.
//
//	go run ./bench                                  every workload, measured then traced
//	go run ./bench -workload wire_unix_256          one measured run; last line is the result as JSON
//	go run ./bench -workload wire_unix_256 -trace 1 one traced run: the per-layer metrics
//	go run ./bench -agree                           two sets of measured runs, compared against the bounds
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "run only this workload and print its result as one JSON line (default: all four, measured then traced)")
		seed    = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds = flag.Float64("seconds", 26, "timed seconds one measured run collects")
		trace   = flag.Int("trace", 0, "with -workload: 1 runs the traced ops and probes and prints the per-layer metrics")
		agree   = flag.Bool("agree", false, "run the measured set twice in opposite workload order and fail if a metric differs by more than its bound")
		outDir  = flag.String("out", filepath.Join("bench", "out"), "directory for trace and result files")
		child   = flag.Bool("child", false, "internal: run the workload's ops in this process and stream samples to the parent")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	if *seconds <= 0 {
		fatalf("-seconds must be positive")
	}

	if *child {
		// All load comes from one process on at most four cores, so the
		// numbers mean the same on a large machine as on the 2-core box.
		runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
		w := workloadByName(*name)
		if w == nil {
			fatalf("unknown workload %q", *name)
		}
		enc := json.NewEncoder(os.Stdout)
		execute(w, *seed, *seconds, *trace == 1, *outDir, func(r record) {
			if err := enc.Encode(r); err != nil {
				fatalf("streaming to parent: %v", err)
			}
		})
		return
	}

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatalf("%v", err)
	}
	st := newStamp(*seed)
	switch {
	case *agree:
		os.Exit(runAgree(st, *seconds, *outDir))
	case *name != "":
		w := workloadByName(*name)
		if w == nil {
			fatalf("unknown workload %q", *name)
		}
		run := runWorkload(w, *seed, *seconds, *trace == 1, *outDir)
		run.print(os.Stdout)
		line, err := json.Marshal(run.result())
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("%s\n", line)
		if !run.correct() {
			os.Exit(1)
		}
	default:
		os.Exit(runAll(st, *seconds, *outDir))
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// workloadRun is what one run of one workload produced.
type workloadRun struct {
	w         *workloadDef
	traced    bool
	samples   []opSample
	layers    map[string]float64
	errs      []string // failures outside any op: a probe, a trace file, the child itself
	timedOut  bool
	peakRSSMB float64
}

// runWorkload runs one workload in a child process under a watchdog: if
// no record arrives within the workload's op deadline the child is
// killed and the op in flight counts as failed, so a deadlocked
// collective fails the run instead of hanging it. A process per workload
// also makes peak RSS a per-workload number.
func runWorkload(w *workloadDef, seed int64, seconds float64, traced bool, outDir string) *workloadRun {
	run := &workloadRun{w: w, traced: traced}
	self, err := os.Executable()
	if err != nil {
		run.errs = append(run.errs, err.Error())
		return run
	}
	traceArg := "0"
	if traced {
		traceArg = "1"
	}
	cmd := exec.Command(self, "-child", "-workload", w.Name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", traceArg, "-out", outDir)
	cmd.Stderr = os.Stderr
	cmd.Env = append(os.Environ(), socketDirEnv()...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		run.errs = append(run.errs, err.Error())
		return run
	}
	if err := cmd.Start(); err != nil {
		run.errs = append(run.errs, err.Error())
		return run
	}
	records := make(chan record)
	go func() {
		defer close(records)
		sc := bufio.NewScanner(stdout)
		sc.Buffer(make([]byte, 1<<20), 1<<26)
		for sc.Scan() {
			var r record
			if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
				r = record{Err: fmt.Sprintf("unreadable record from child: %v", err)}
			}
			records <- r
		}
	}()

	done := false
	watchdog := time.NewTimer(w.Deadline)
	defer watchdog.Stop()
read:
	for {
		select {
		case r, ok := <-records:
			if !ok {
				break read
			}
			if !watchdog.Stop() {
				<-watchdog.C
			}
			watchdog.Reset(w.Deadline)
			run.take(r)
			done = done || r.Done
		case <-watchdog.C:
			run.timedOut = true
			cmd.Process.Kill()
			for range records { // let the reader drain to EOF and exit
			}
			break read
		}
	}
	err = cmd.Wait()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		run.peakRSSMB = float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
	}
	switch {
	case run.timedOut:
		run.errs = append(run.errs, fmt.Sprintf("watchdog: no progress for %v, child killed", w.Deadline))
	case err != nil:
		run.errs = append(run.errs, fmt.Sprintf("child: %v", err))
	case !done:
		run.errs = append(run.errs, "child exited before finishing the run")
	}
	return run
}

// socketDirEnv points the child's temporary directory, where the socket
// cluster puts its unix sockets, into the build directory of the current
// checkout when the path is short enough for a socket address.
func socketDirEnv() []string {
	cwd, err := os.Getwd()
	if err != nil {
		return nil
	}
	dir := filepath.Join(cwd, ".bench_build", "tmp")
	if len(dir) > 60 || os.MkdirAll(dir, 0o755) != nil {
		return nil
	}
	return []string{"TMPDIR=" + dir}
}

func (run *workloadRun) take(r record) {
	switch {
	case r.Op != nil:
		run.samples = append(run.samples, *r.Op)
	case r.Layers != nil:
		run.layers = r.Layers
	case r.Err != "":
		run.errs = append(run.errs, r.Err)
	}
}

// attempted and failed count ops; the op a watchdog kill interrupted is
// one failed attempt.
func (run *workloadRun) attempted() int {
	n := len(run.samples)
	if run.timedOut || n == 0 {
		n++
	}
	return n
}

func (run *workloadRun) failed() int {
	n := 0
	for _, s := range run.samples {
		if s.Err != "" {
			n++
		}
	}
	if run.timedOut || len(run.samples) == 0 {
		n++
	}
	return n
}

func (run *workloadRun) correct() bool { return run.failed() == 0 && len(run.errs) == 0 }

// perOp collects a metric's values over the run's measured ops — and,
// for setup_s, over the set-ups run alone. -agree prints their quartiles.
func (run *workloadRun) perOp(def metricDef) []float64 {
	var out []float64
	for _, s := range run.samples {
		if def.Sample != nil && s.Err == "" && (s.Role == "measured" || (s.Role == "setup" && def.Name == "setup_s")) {
			out = append(out, def.Sample(s)...)
		}
	}
	return out
}

// endToEndValues computes the end-to-end metrics of a measured run.
func (run *workloadRun) endToEndValues() map[string]float64 {
	m := map[string]float64{}
	for _, def := range endToEnd {
		switch {
		case def.Sample == nil:
			m[def.Name] = run.peakRSSMB
		case def.Mean:
			m[def.Name] = mean(run.perOp(def))
		default:
			m[def.Name] = median(run.perOp(def))
		}
	}
	return m
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the line a single-workload run ends with.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (run *workloadRun) result() runResult {
	res := runResult{Correct: run.correct(), Attempted: run.attempted(), Failed: run.failed(),
		Metrics: map[string]metricValue{}}
	if run.traced {
		for _, def := range perLayer {
			res.Metrics[def.Name] = metricValue{run.layers[def.Name], def.Unit}
		}
	} else {
		values := run.endToEndValues()
		for _, def := range endToEnd {
			res.Metrics[def.Name] = metricValue{values[def.Name], def.Unit}
		}
	}
	return res
}

// print writes the run for a reader: every metric by name with its unit.
func (run *workloadRun) print(out io.Writer) {
	kind := "measured"
	if run.traced {
		kind = "traced"
	}
	fmt.Fprintf(out, "== %s (%s): %d ops attempted, %d failed\n", run.w.Name, kind, run.attempted(), run.failed())
	for _, s := range run.samples {
		if s.Err != "" {
			fmt.Fprintf(out, "   FAILED %s\n", s.Err)
		}
	}
	for _, e := range run.errs {
		fmt.Fprintf(out, "   FAILED %s\n", e)
	}
	if run.traced {
		for _, def := range perLayer {
			fmt.Fprintf(out, "   %-34s %16.6g %s\n", def.Name, run.layers[def.Name], def.Unit)
		}
		return
	}
	values := run.endToEndValues()
	for _, def := range endToEnd {
		fmt.Fprintf(out, "   %-34s %16.6g %-8s (%s is better, bound %g%%)\n",
			def.Name, values[def.Name], def.Unit, def.Better, 100*def.Bound)
	}
	if iters := run.perOp(endToEndMetric("iter_s_p50")); len(iters) > 0 && !run.w.Service {
		pct, v := tail(iters)
		fmt.Fprintf(out, "   %-34s %16.6g s        (p%g of %d iterations; not gating)\n", "iter_s tail", v, pct, len(iters))
	}
	kernel, wall := run.unscaled()
	fmt.Fprintf(out, "   %-34s %16.6g s        (median over ops; durations above are seconds at the reference %g s)\n", "speed kernel", kernel, refKernelSeconds)
	fmt.Fprintf(out, "   %-34s %16.6g s        (as the clock read it)\n", "op_s_p50 unscaled", wall)
}

// unscaled returns the median speed-kernel time and the median op wall
// time of the measured ops as the clock read them, for the reader who
// wants to know how fast the machine was.
func (run *workloadRun) unscaled() (kernel, wall float64) {
	var ks, ws []float64
	for _, s := range run.samples {
		if s.Role == "measured" && s.Err == "" {
			ks, ws = append(ks, s.KernelS), append(ws, s.WallS)
		}
	}
	return median(ks), median(ws)
}

// resultsFile is what a full run leaves in the out directory.
type resultsFile struct {
	Stamp     stamp                         `json:"stamp"`
	Seconds   float64                       `json:"seconds"`
	Workloads map[string]workloadResultJSON `json:"workloads"`
}

type workloadResultJSON struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer"`
}

// runAll is the default mode: every workload measured, then traced.
func runAll(st stamp, seconds float64, outDir string) int {
	st.print(os.Stdout)
	file := resultsFile{Stamp: st, Seconds: seconds, Workloads: map[string]workloadResultJSON{}}
	ok := true
	for _, w := range workloads {
		measured := runWorkload(w, st.Seed, seconds, false, outDir)
		measured.print(os.Stdout)
		traced := runWorkload(w, st.Seed, seconds, true, outDir)
		traced.print(os.Stdout)
		ok = ok && measured.correct() && traced.correct()
		file.Workloads[w.Name] = workloadResultJSON{
			Attempted: measured.attempted() + traced.attempted(),
			Failed:    measured.failed() + traced.failed(),
			EndToEnd:  measured.endToEndValues(),
			PerLayer:  traced.layers,
		}
	}
	path := filepath.Join(outDir, "results.json")
	if err := writeJSON(path, file); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Printf("results written to %s; traces to %s\n", path, filepath.Join(outDir, "<workload>.trace.json"))
	if !ok {
		fmt.Println("FAILED: at least one operation or output check failed")
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
