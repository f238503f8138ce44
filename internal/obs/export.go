package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"
)

// chromeEvent is one entry of the Chrome trace_event JSON format
// (docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU).
// Timestamps and durations are microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

func usec(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// chromePhase classifies an event into a trace_event phase: "B"/"E" for
// the paired span types, "X" (complete) when a duration was measured,
// "i" (instant) otherwise.
func chromePhase(e Event) string {
	switch e.Type {
	case EvEpochOpen, EvPhaseBegin, EvIterBegin, EvLBBegin:
		return "B"
	case EvEpochClose, EvPhaseEnd, EvIterEnd, EvLBEnd:
		return "E"
	}
	if e.Dur > 0 {
		return "X"
	}
	return "i"
}

// WriteChromeTrace writes the events as Chrome trace_event JSON loadable
// by chrome://tracing and Perfetto, with one thread track per rank
// (pid 0, tid = rank). Events need not be sorted; paired Open/Close
// types become B/E spans, events carrying a Dur become complete slices,
// everything else an instant.
func WriteChromeTrace(w io.Writer, events []Event) error {
	return WriteChromeTraceNamed(w, events, nil)
}

// WriteChromeTraceNamed is WriteChromeTrace with explicit track names:
// a rank whose number appears in names gets that label instead of the
// default "rank N" (used e.g. when tracks are simulation configurations
// rather than real ranks).
func WriteChromeTraceNamed(w io.Writer, events []Event, names map[int]string) error {
	sorted := append([]Event(nil), events...)
	sortEvents(sorted)
	trace := chromeTrace{DisplayTimeUnit: "ms", TraceEvents: []chromeEvent{}}

	ranks := map[int]bool{}
	for _, e := range sorted {
		ranks[e.Rank] = true
	}
	for _, r := range sortedInts(ranks) {
		name := names[r]
		if name == "" {
			name = fmt.Sprintf("rank %d", r)
		}
		trace.TraceEvents = append(trace.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", PID: 0, TID: r,
			Args: map[string]any{"name": name},
		})
	}

	for _, e := range sorted {
		ce := chromeEvent{
			Name: e.Type.String(),
			Ph:   chromePhase(e),
			TS:   usec(e.TS),
			PID:  0,
			TID:  e.Rank,
		}
		if e.Name != "" {
			ce.Name = e.Type.String() + ":" + e.Name
		}
		switch ce.Ph {
		case "X":
			// The emitting site stamps events at activity end; Chrome
			// wants the start.
			ce.TS = usec(e.TS - e.Dur)
			ce.Dur = usec(e.Dur)
		case "i":
			ce.S = "t"
		case "E":
			ce.Name = "" // E inherits the matching B's name
		}
		if ce.Ph != "E" {
			ce.Args = eventArgs(e)
		}
		trace.TraceEvents = append(trace.TraceEvents, ce)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(trace)
}

// eventArgs exposes the informative event fields in the trace UI.
func eventArgs(e Event) map[string]any {
	args := map[string]any{}
	if e.Peer >= 0 {
		args["peer"] = e.Peer
	}
	if e.Trial > 0 {
		args["trial"] = e.Trial
	}
	if e.Iteration > 0 {
		args["iteration"] = e.Iteration
	}
	if e.Epoch != 0 {
		args["epoch"] = e.Epoch
	}
	if e.Object >= 0 {
		args["object"] = e.Object
	}
	if e.Value != 0 {
		args["value"] = e.Value
	}
	if e.Bytes != 0 {
		args["bytes"] = e.Bytes
	}
	if e.Fanout != 0 {
		args["fanout"] = e.Fanout
	}
	if e.Depth != 0 {
		args["depth"] = e.Depth
	}
	if len(args) == 0 {
		return nil
	}
	return args
}

func sortedInts(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// splitLabels splits a metric name in exposition syntax into its family
// (the part before any label brace) and the label body between the
// braces ("" when unlabelled).
func splitLabels(name string) (family, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i], strings.TrimSuffix(name[i+1:], "}")
	}
	return name, ""
}

// family returns the metric family of an exposition-syntax name.
func family(name string) string {
	f, _ := splitLabels(name)
	return f
}

// EscapeLabelValue escapes a label value per the Prometheus text
// exposition format: backslash, double quote and newline become \\, \"
// and \n.
func EscapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	b.Grow(len(v) + 2)
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// LabeledName renders family{k1="v1",...} in exposition syntax with the
// label values escaped — the way registry names carrying labels (see
// Metrics) should be built. kv alternates keys and values; an odd tail
// or empty kv returns the bare family.
func LabeledName(fam string, kv ...string) string {
	if len(kv) < 2 {
		return fam
	}
	var b strings.Builder
	b.WriteString(fam)
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(EscapeLabelValue(kv[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// sampleName joins a family (plus optional suffix such as _bucket) with
// a base label body and one extra label, producing a well-formed sample
// name whether or not either label part is empty.
func sampleName(fam, suffix, labels, extra string) string {
	name := fam + suffix
	switch {
	case labels == "" && extra == "":
		return name
	case labels == "":
		return name + "{" + extra + "}"
	case extra == "":
		return name + "{" + labels + "}"
	default:
		return name + "{" + labels + "," + extra + "}"
	}
}

// WritePrometheus writes the registry in the Prometheus text exposition
// format (version 0.0.4): counters, gauges, then histograms with
// cumulative le-labelled buckets. Each family is preceded by its HELP
// text (when registered via Metrics.SetHelp) and a TYPE line, each
// emitted exactly once per family even when many labelled series share
// it; histogram label suffixes merge with the le label instead of
// nesting braces. A registry with an OnScrape function is refreshed first.
func WritePrometheus(w io.Writer, m *Metrics) error {
	if m.onScrape != nil {
		m.onScrape()
	}
	bw := bufio.NewWriter(w)
	seenHeader := map[string]bool{}
	header := func(fam, kind string) {
		if seenHeader[fam] {
			return
		}
		seenHeader[fam] = true
		if help := m.helpFor(fam); help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", fam, help)
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", fam, kind)
	}
	m.visit(
		func(name string, c *Counter) {
			header(family(name), "counter")
			fmt.Fprintf(bw, "%s %d\n", name, c.Value())
		},
		func(name string, g *Gauge) {
			header(family(name), "gauge")
			fmt.Fprintf(bw, "%s %s\n", name, formatFloat(g.Value()))
		},
		func(name string, h *Histogram) {
			fam, labels := splitLabels(name)
			header(fam, "histogram")
			snap := h.Snapshot()
			cum := int64(0)
			for i, bound := range snap.Bounds {
				cum += snap.Counts[i]
				fmt.Fprintf(bw, "%s %d\n",
					sampleName(fam, "_bucket", labels, `le="`+formatFloat(bound)+`"`), cum)
			}
			fmt.Fprintf(bw, "%s %d\n", sampleName(fam, "_bucket", labels, `le="+Inf"`), snap.Count)
			fmt.Fprintf(bw, "%s %s\n", sampleName(fam, "_sum", labels, ""), formatFloat(snap.Sum))
			fmt.Fprintf(bw, "%s %d\n", sampleName(fam, "_count", labels, ""), snap.Count)
		},
	)
	return bw.Flush()
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
