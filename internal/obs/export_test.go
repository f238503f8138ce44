package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// fixtureEvents is a deterministic event stream exercising every phase
// class of the Chrome exporter: B/E spans, X completes, and instants.
func fixtureEvents() []Event {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	return []Event{
		{Type: EvLBBegin, Rank: 0, Peer: -1, Object: -1, TS: ms(0)},
		{Type: EvIterBegin, Rank: 0, Peer: -1, Object: -1, Trial: 1, Iteration: 1, TS: ms(1)},
		{Type: EvEpochOpen, Rank: 0, Peer: -1, Object: -1, Epoch: 1, TS: ms(2)},
		{Type: EvEpochOpen, Rank: 1, Peer: -1, Object: -1, Epoch: 1, TS: ms(2)},
		{Type: EvInformSend, Rank: 0, Peer: 1, Object: -1, Trial: 1, Iteration: 1, Value: 3, TS: ms(3)},
		{Type: EvInformRecv, Rank: 1, Peer: 0, Object: -1, Trial: 1, Iteration: 1, Value: 3, TS: ms(4)},
		{Type: EvHandler, Rank: 1, Peer: 0, Object: -1, Name: "lb.gossip", TS: ms(5), Dur: ms(1)},
		{Type: EvTokenRound, Rank: 1, Peer: 0, Object: -1, Epoch: 1, Value: 2, TS: ms(6)},
		{Type: EvMigration, Rank: 0, Peer: 1, Object: 7, Bytes: 128, TS: ms(7)},
		{Type: EvEpochClose, Rank: 1, Peer: -1, Object: -1, Epoch: 1, TS: ms(8), Dur: ms(6)},
		{Type: EvEpochClose, Rank: 0, Peer: -1, Object: -1, Epoch: 1, TS: ms(8), Dur: ms(6)},
		{Type: EvCollective, Rank: 0, Peer: -1, Object: -1, Name: "allreduce", TS: ms(9), Dur: ms(1)},
		{Type: EvIterEnd, Rank: 0, Peer: -1, Object: -1, Trial: 1, Iteration: 1, Value: 0.25, TS: ms(10)},
		{Type: EvLBEnd, Rank: 0, Peer: -1, Object: -1, Value: 0.25, TS: ms(11)},
	}
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, fixtureEvents()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "trace.json.golden", buf.Bytes())
}

// TestChromeTraceRoundTrip re-parses the exported JSON and verifies the
// structural properties Perfetto relies on: one named track per rank,
// balanced B/E pairs per track, and X events with non-negative start.
func TestChromeTraceRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	events := fixtureEvents()
	if err := WriteChromeTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	var parsed chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	names := map[int]string{}
	depth := map[int]int{}
	var payload int
	for _, ce := range parsed.TraceEvents {
		switch ce.Ph {
		case "M":
			names[ce.TID] = ce.Args["name"].(string)
		case "B":
			depth[ce.TID]++
			payload++
		case "E":
			depth[ce.TID]--
			if depth[ce.TID] < 0 {
				t.Fatalf("unbalanced E on tid %d", ce.TID)
			}
			payload++
		case "X":
			if ce.TS < 0 || ce.Dur <= 0 {
				t.Fatalf("bad X event: %+v", ce)
			}
			payload++
		case "i":
			payload++
		default:
			t.Fatalf("unknown phase %q", ce.Ph)
		}
	}
	if payload != len(events) {
		t.Fatalf("round-trip lost events: %d of %d", payload, len(events))
	}
	for tid, d := range depth {
		if d != 0 {
			t.Errorf("tid %d left %d spans open", tid, d)
		}
	}
	if names[0] != "rank 0" || names[1] != "rank 1" {
		t.Errorf("track names = %v", names)
	}
}

func fixtureMetrics() *Metrics {
	m := NewMetrics()
	m.Counter(`comm_messages_total{kind="user"}`).Add(42)
	m.Counter(`comm_messages_total{kind="token"}`).Add(7)
	m.Counter("lb_transfers_total").Add(13)
	m.Gauge("lb_final_imbalance").Set(0.125)
	h := m.Histogram("amt_epoch_seconds")
	h.Observe(0.0005)
	h.Observe(0.02)
	h.Observe(5)
	return m
}

func TestPrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, fixtureMetrics()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "metrics.prom.golden", buf.Bytes())
}

// TestPrometheusRoundTrip parses the exposition text back and checks the
// sample values survive, including cumulative histogram buckets.
func TestPrometheusRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, fixtureMetrics()); err != nil {
		t.Fatal(err)
	}
	samples := map[string]float64{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("unparseable sample %q: %v", line, err)
		}
		samples[line[:i]] = v
	}
	want := map[string]float64{
		`comm_messages_total{kind="user"}`:        42,
		`comm_messages_total{kind="token"}`:       7,
		"lb_transfers_total":                      13,
		"lb_final_imbalance":                      0.125,
		`amt_epoch_seconds_bucket{le="1e-06"}`:    0,
		`amt_epoch_seconds_bucket{le="0.000256"}`: 0,
		`amt_epoch_seconds_bucket{le="0.001"}`:    1,
		`amt_epoch_seconds_bucket{le="0.016"}`:    1,
		`amt_epoch_seconds_bucket{le="0.064"}`:    2,
		`amt_epoch_seconds_bucket{le="4"}`:        2,
		`amt_epoch_seconds_bucket{le="16"}`:       3,
		`amt_epoch_seconds_bucket{le="+Inf"}`:     3,
		"amt_epoch_seconds_count":                 3,
	}
	for name, w := range want {
		if got, ok := samples[name]; !ok || got != w {
			t.Errorf("sample %s = %g (present %v), want %g", name, got, ok, w)
		}
	}
}
