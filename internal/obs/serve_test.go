package obs

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestServeSnapshotAndFrames(t *testing.T) {
	s := NewStream(8)
	m := NewMetrics()
	m.Counter("test_total").Add(3)
	// A counter folded from a total kept elsewhere: every request reads
	// the total as of the request, not as of the last one.
	folded := int64(0)
	m.OnScrape(func() { folded += 7; m.Counter("folded_total").Store(folded) })
	srv := httptest.NewServer(NewServeMux(s, m))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/snapshot before frames: status %d, want 404", resp.StatusCode)
	}

	s.Publish(Snapshot{Source: "test", Ranks: 2, Loads: []float64{1, 3}})
	s.Publish(Snapshot{Source: "test", Ranks: 2, Loads: []float64{2, 2}})

	resp, err = http.Get(srv.URL + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	var f Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&f); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if f.Seq != 1 || f.Loads[0] != 2 {
		t.Fatalf("/snapshot = %+v, want seq 1", f)
	}

	resp, err = http.Get(srv.URL + "/frames")
	if err != nil {
		t.Fatal(err)
	}
	frames, err := ReadSnapshots(resp.Body)
	resp.Body.Close()
	if err != nil || len(frames) != 2 {
		t.Fatalf("/frames = %d frames (err %v), want 2", len(frames), err)
	}

	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "test_total 3") || !strings.Contains(string(body), "folded_total 7") {
		t.Fatalf("/metrics missing a counter:\n%s", body)
	}
	var again strings.Builder
	if err := WritePrometheus(&again, m); err != nil || !strings.Contains(again.String(), "folded_total 14") {
		t.Fatalf("second export did not refold (err %v):\n%s", err, again.String())
	}

	resp, err = http.Get(srv.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline status %d", resp.StatusCode)
	}
}

func TestServeStreamTailsLiveFrames(t *testing.T) {
	s := NewStream(8)
	srv := httptest.NewServer(NewServeMux(s, nil))
	defer srv.Close()

	s.Publish(Snapshot{Trial: 1})

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", srv.URL+"/stream", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	lines := make(chan Snapshot)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var f Snapshot
			if json.Unmarshal(sc.Bytes(), &f) == nil {
				lines <- f
			}
		}
		close(lines)
	}()

	// Replayed frame first.
	f := <-lines
	if f.Trial != 1 {
		t.Fatalf("replay frame = %+v, want Trial 1", f)
	}
	// Then a live frame published after the client connected.
	s.Publish(Snapshot{Trial: 2})
	select {
	case f = <-lines:
		if f.Trial != 2 {
			t.Fatalf("live frame = %+v, want Trial 2", f)
		}
	case <-ctx.Done():
		t.Fatal("timed out waiting for live frame")
	}
	cancel() // disconnect; the handler must return via ctx.Done
}

func TestServeStreamSinceSkipsReplay(t *testing.T) {
	s := NewStream(8)
	for i := 0; i < 5; i++ {
		s.Publish(Snapshot{Iteration: i})
	}
	srv := httptest.NewServer(NewServeMux(s, nil))
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", srv.URL+"/stream?since=3", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	var got []int64
	for len(got) < 2 && sc.Scan() {
		var f Snapshot
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			t.Fatal(err)
		}
		got = append(got, f.Seq)
	}
	if len(got) != 2 || got[0] != 3 || got[1] != 4 {
		t.Fatalf("since=3 replayed seqs %v, want [3 4]", got)
	}
}

func TestServeNilStream404(t *testing.T) {
	srv := httptest.NewServer(NewServeMux(nil, nil))
	defer srv.Close()
	for _, path := range []string{"/stream", "/frames", "/snapshot", "/metrics"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s status %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestStartServerBindsEphemeralPort(t *testing.T) {
	s := NewStream(4)
	s.Publish(Snapshot{Ranks: 1})
	srv, addr, err := StartServer("127.0.0.1:0", s, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + addr + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
}
