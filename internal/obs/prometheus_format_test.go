package obs

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
)

// promSampleRE matches one sample line of the text exposition format:
// a valid metric name, an optional well-formed label body, and a value.
var promSampleRE = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\\\|\\"|\\n)*"(,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\\\|\\"|\\n)*")*\})? \S+$`)

// auditMetrics builds a registry exercising every exporter hazard: HELP
// text, many labelled series per family, label values needing escaping,
// and a histogram that itself carries labels.
func auditMetrics() *Metrics {
	m := NewMetrics()
	m.SetHelp("comm_messages_total", "Transport messages sent, by kind.")
	m.SetHelp("rt_epoch_seconds", "Epoch duration in seconds.")
	m.Counter(LabeledName("comm_messages_total", "kind", "user")).Add(10)
	m.Counter(LabeledName("comm_messages_total", "kind", "token")).Add(4)
	m.Counter(LabeledName("weird_total", "name", "a\\b\"c\nd")).Add(1)
	m.Gauge("plain_gauge").Set(1.5)
	h := m.Histogram(LabeledName("rt_epoch_seconds", "cfg", "tempered"))
	h.Observe(0.005)
	h.Observe(0.5)
	return m
}

// TestPrometheusFormatAudit validates the full exposition output
// line-by-line: every non-comment line is a well-formed sample, every
// HELP/TYPE appears exactly once per family and before that family's
// first sample, and every counter family ends in _total.
func TestPrometheusFormatAudit(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, auditMetrics()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasSuffix(out, "\n") {
		t.Error("exposition must end with a newline")
	}
	helpSeen := map[string]int{}
	typeSeen := map[string]int{}
	counterFams := map[string]bool{}
	samplesStarted := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			fam := strings.Fields(line)[2]
			helpSeen[fam]++
			if samplesStarted[fam] {
				t.Errorf("HELP for %s after its samples", fam)
			}
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(line)
			fam, kind := fields[2], fields[3]
			typeSeen[fam]++
			if samplesStarted[fam] {
				t.Errorf("TYPE for %s after its samples", fam)
			}
			if kind == "counter" {
				counterFams[fam] = true
			}
		default:
			if !promSampleRE.MatchString(line) {
				t.Errorf("malformed sample line: %q", line)
			}
			fam := family(strings.SplitN(line, " ", 2)[0])
			// _bucket/_sum/_count samples belong to the histogram family.
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if typeSeen[strings.TrimSuffix(fam, suffix)] > 0 {
					fam = strings.TrimSuffix(fam, suffix)
					break
				}
			}
			samplesStarted[fam] = true
			if typeSeen[fam] == 0 {
				t.Errorf("sample before TYPE for family %s: %q", fam, line)
			}
		}
	}
	for fam, n := range typeSeen {
		if n != 1 {
			t.Errorf("TYPE for %s emitted %d times", fam, n)
		}
	}
	for fam, n := range helpSeen {
		if n != 1 {
			t.Errorf("HELP for %s emitted %d times", fam, n)
		}
	}
	if helpSeen["comm_messages_total"] != 1 || helpSeen["rt_epoch_seconds"] != 1 {
		t.Errorf("registered HELP missing: %v", helpSeen)
	}
	for fam := range counterFams {
		if !strings.HasSuffix(fam, "_total") {
			t.Errorf("counter family %s does not end in _total", fam)
		}
	}
	// The labelled histogram must merge its labels with le, not nest
	// braces after them.
	if !strings.Contains(out, `rt_epoch_seconds_bucket{cfg="tempered",le="0.016"} 1`) {
		t.Errorf("labelled histogram bucket malformed:\n%s", out)
	}
	if !strings.Contains(out, `rt_epoch_seconds_sum{cfg="tempered"}`) ||
		!strings.Contains(out, `rt_epoch_seconds_count{cfg="tempered"} 2`) {
		t.Errorf("labelled histogram sum/count malformed:\n%s", out)
	}
	if !strings.Contains(out, `weird_total{name="a\\b\"c\nd"} 1`) {
		t.Errorf("label escaping wrong:\n%s", out)
	}
}

func TestEscapeLabelValue(t *testing.T) {
	cases := map[string]string{
		"plain":      "plain",
		`back\slash`: `back\\slash`,
		`qu"ote`:     `qu\"ote`,
		"new\nline":  `new\nline`,
	}
	for in, want := range cases {
		if got := EscapeLabelValue(in); got != want {
			t.Errorf("EscapeLabelValue(%q) = %q, want %q", in, got, want)
		}
	}
	if got := LabeledName("fam", "k", `v"1`); got != `fam{k="v\"1"}` {
		t.Errorf("LabeledName = %q", got)
	}
	if got := LabeledName("fam"); got != "fam" {
		t.Errorf("LabeledName bare = %q", got)
	}
}

// TestExportersEmptyInputs pins the exporters' output on an empty event
// stream and an empty registry — the zero-iteration shapes downstream
// tooling must still parse.
func TestExportersEmptyInputs(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.String(), `{"traceEvents":[],"displayTimeUnit":"ms"}`+"\n"; got != want {
		t.Errorf("empty Chrome trace = %q, want %q", got, want)
	}

	buf.Reset()
	if err := WritePrometheus(&buf, NewMetrics()); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "" {
		t.Errorf("empty registry exposition = %q, want empty", buf.String())
	}
}
