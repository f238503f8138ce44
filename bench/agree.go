package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// stamp records where and when a results file was produced, so a number
// is never compared with one from another machine unknowingly.
type stamp struct {
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Load1      float64 `json:"load1"`
	// Noisy marks a run that started with more runnable work on the
	// machine than it has processors; its timings are not to be trusted.
	Noisy bool   `json:"noisy"`
	Time  string `json:"time"`
}

func newStamp(seed int64) stamp {
	st := stamp{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: min(runtime.NumCPU(), 4),
		Go:         runtime.Version(),
		Commit:     commit(),
		Seed:       seed,
		Load1:      loadAverage(),
		Time:       time.Now().UTC().Format(time.RFC3339),
	}
	st.Noisy = st.Load1 > float64(st.NProc)
	return st
}

func (st stamp) print(out io.Writer) {
	fmt.Fprintf(out, "cpu %q, nproc %d, GOMAXPROCS %d, %s, commit %s, seed %d, load average %.2f, %s\n",
		st.CPU, st.NProc, st.GOMAXPROCS, st.Go, st.Commit, st.Seed, st.Load1, st.Time)
	if st.Noisy {
		fmt.Fprintf(out, "NOISY: the 1-minute load average exceeds the processor count; timings below are not trustworthy\n")
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func loadAverage() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(fields[0], 64) // 0 on a malformed file is the same as no file
	return v
}

// commit is the revision the binary was built from, or the work tree's
// HEAD when the build carries none (go run outside a module's VCS root).
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

// runAgree runs the measured set twice, the second time in the opposite
// workload order, and holds every (metric, workload) pair to the
// metric's rule. Passing means the bounds are wider than the
// benchmark's own run-to-run noise on this machine, which is what makes
// them usable as regression bounds.
func runAgree(st stamp, seconds float64, outDir string) int {
	var report strings.Builder
	out := io.MultiWriter(os.Stdout, &report)
	st.print(out)
	fmt.Fprintf(out, "two sets of measured runs, %g timed seconds per workload, second set in reverse order\n\n", seconds)

	var sets [2]map[string]*workloadRun
	ok := true
	for i := range sets {
		sets[i] = map[string]*workloadRun{}
		for j := range workloads {
			w := workloads[j]
			if i == 1 {
				w = workloads[len(workloads)-1-j]
			}
			run := runWorkload(w, st.Seed, seconds, false, outDir)
			if !run.correct() {
				run.print(out)
				ok = false
			}
			sets[i][w.Name] = run
		}
	}

	fmt.Fprintf(out, "%-20s %-18s %38s %38s %9s  %-8s %s\n",
		"workload", "metric", "first set: value [q1, q3] (ops)", "second set: value [q1, q3] (ops)", "differs", "rule", "verdict")
	for _, w := range workloads {
		a, b := sets[0][w.Name], sets[1][w.Name]
		va, vb := a.endToEndValues(), b.endToEndValues()
		for _, def := range endToEnd {
			r := def.agreeRule(w.Name)
			x, y := va[def.Name], vb[def.Name]
			agrees := r.within(x, y)
			ruleText := fmt.Sprintf("%g%%", 100*r.rel)
			if r.exact {
				// Op i of both sets ran the same input, so the values must
				// match op by op; a set that fitted one op more into its
				// budget is compared on the ops both have.
				ruleText = "exact"
				pa, pb := a.perOp(def), b.perOp(def)
				n := min(len(pa), len(pb))
				x, y = mean(pa[:n]), mean(pb[:n])
				agrees = n > 0
				for i := 0; i < n; i++ {
					agrees = agrees && r.within(pa[i], pb[i])
				}
			}
			verdict := "ok"
			if !agrees {
				verdict = "DISAGREE"
				ok = false
			}
			diff := 0.0
			if x != 0 {
				diff = (y - x) / x
			}
			fmt.Fprintf(out, "%-20s %-18s %38s %38s %+8.2f%%  %-8s %s\n", w.Name, def.Name,
				spreadText(x, a.perOp(def)), spreadText(y, b.perOp(def)),
				100*diff, ruleText, verdict)
		}
	}
	if ok {
		fmt.Fprintf(out, "\nAGREE: every metric on every workload repeats within its bound\n")
	} else {
		fmt.Fprintf(out, "\nDISAGREE: at least one metric moved by more than its bound between two sets of runs of the same code, or a run failed\n")
	}
	path := filepath.Join(outDir, "agree.txt")
	if err := os.WriteFile(path, []byte(report.String()), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	if !ok {
		return 1
	}
	return 0
}

// spreadText renders a metric's value with the quartiles of the per-op
// values behind it; a run-level metric (peak RSS) has none.
func spreadText(value float64, perOp []float64) string {
	if len(perOp) == 0 {
		return fmt.Sprintf("%.6g", value)
	}
	q1, _, q3 := quartiles(perOp)
	return fmt.Sprintf("%.6g [%.4g, %.4g] (%d)", value, q1, q3, len(perOp))
}
