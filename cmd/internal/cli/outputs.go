package cli

import (
	"encoding/json"
	"flag"
	"io"
	"log"
	"os"
	"os/signal"
	"strings"

	"temperedlb/internal/amt"
	"temperedlb/internal/obs"
)

// Outputs is the flag group of what a run leaves behind: files written
// when it ends and the live endpoint it serves meanwhile.
type Outputs struct {
	Trace, Metrics, Serve, Frames, Result string

	rt     *amt.Runtime
	rec    *obs.Recorder
	stream *obs.Stream
	srv    io.Closer
}

// Register declares -trace -metrics -serve -frames -result on fs and
// returns the names it declared.
func (o *Outputs) Register(fs *flag.FlagSet, only ...string) []string {
	return register(fs, only, func(g *flag.FlagSet) {
		g.StringVar(&o.Trace, "trace", o.Trace, "write the run's events as Chrome trace_event JSON to this file (open in ui.perfetto.dev)")
		g.StringVar(&o.Metrics, "metrics", o.Metrics, "write the run's metrics in Prometheus text format to this file")
		g.StringVar(&o.Serve, "serve", o.Serve, "serve live observability HTTP on this address (NDJSON /stream, /metrics, /debug/pprof/; attach with lbtop -url) and keep serving after the run until interrupted")
		g.StringVar(&o.Frames, "frames", o.Frames, "write the run's frame ring as NDJSON to this file (replay with lbtop -replay)")
		g.StringVar(&o.Result, "result", o.Result, "write the first local rank's protocol-determined DistResult as JSON to this file (timing stripped; diffable across transports and processes)")
	})
}

// Tracer returns the recorder behind -trace, or a nil Tracer — safe to
// store where a nil check guards the emit — when the flag is unset.
func (o *Outputs) Tracer() obs.Tracer {
	if o.Trace == "" {
		return nil
	}
	if o.rec == nil {
		o.rec = obs.NewRecorder()
	}
	return o.rec
}

// Stream returns the frame stream behind -serve and -frames, nil when
// neither is set.
func (o *Outputs) Stream() *obs.Stream {
	if o.stream == nil && (o.Serve != "" || o.Frames != "") {
		o.stream = obs.NewStream(0)
	}
	return o.stream
}

// Open switches on what the set flags need — the recorder on rt for
// -trace, rt's registry for -metrics or -serve, the stream on rt for
// -serve or -frames — and starts the -serve endpoint. Any one node of a
// job may be the one observed. A binary with no runtime (the engines of
// lbaf and empire) passes nil and hands Tracer and Stream to whatever
// emits; its endpoint then serves frames only.
func (o *Outputs) Open(rt *amt.Runtime) error {
	o.rt = rt
	var metrics *obs.Metrics
	if rt != nil {
		rt.SetTracer(o.Tracer())
		rt.SetStream(o.Stream())
		if o.Metrics != "" || o.Serve != "" {
			metrics = rt.EnableMetrics()
		}
	}
	if o.Serve == "" {
		return nil
	}
	srv, bound, err := obs.StartServer(o.Serve, o.Stream(), metrics)
	if err != nil {
		return err
	}
	o.srv = srv
	log.Printf("serving observability on http://%s (attach with: lbtop -url http://%s)", bound, bound)
	return nil
}

// Export is what a finished run hands Finish beyond what Open attached.
type Export struct {
	// Events and Tracks (track names, by rank; nil = "rank N") replace the
	// recorder's events under -trace, for a timeline that was computed
	// and not recorded. Metrics replaces the runtime's registry under
	// -metrics. Result is the -result document.
	Events  []obs.Event
	Tracks  map[int]string
	Metrics *obs.Metrics
	Result  any
}

// Finish writes every file the flags ask for and then, under -serve,
// keeps serving what the run recorded until interrupted.
func (o *Outputs) Finish(x Export) error {
	if o.Result != "" {
		if err := WriteJSON(o.Result, x.Result); err != nil {
			return err
		}
		log.Printf("wrote result to %s", o.Result)
	}
	if o.Trace != "" {
		events := x.Events
		if events == nil && o.rec != nil {
			events = o.rec.Events()
		}
		err := WriteExport(o.Trace, func(w io.Writer) error {
			return obs.WriteChromeTraceNamed(w, events, x.Tracks)
		})
		if err != nil {
			return err
		}
		log.Printf("wrote %d trace events to %s (open in ui.perfetto.dev)", len(events), o.Trace)
	}
	if o.Metrics != "" {
		m := x.Metrics
		if m == nil && o.rt != nil {
			m = o.rt.Metrics()
		}
		if err := WriteExport(o.Metrics, func(w io.Writer) error { return obs.WritePrometheus(w, m) }); err != nil {
			return err
		}
		log.Printf("wrote metrics to %s", o.Metrics)
	}
	if o.Frames != "" {
		frames := o.Stream().Frames()
		if err := WriteExport(o.Frames, func(w io.Writer) error { return obs.WriteSnapshots(w, frames) }); err != nil {
			return err
		}
		log.Printf("wrote %d frames to %s (replay with: lbtop -replay %s)", len(frames), o.Frames, o.Frames)
	}
	if o.srv != nil {
		log.Print("run finished; still serving (Ctrl-C to exit)")
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt)
		<-sig
		return o.srv.Close()
	}
	return nil
}

// WriteExport creates path and streams one exporter into it.
func WriteExport(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteJSON writes v to path as indented JSON.
func WriteJSON(path string, v any) error {
	return WriteExport(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	})
}

// MetricLabel reduces a table title or configuration name to a
// label-safe slug.
func MetricLabel(name string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(name) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
		case b.Len() > 0 && !strings.HasSuffix(b.String(), "_"):
			b.WriteByte('_')
		}
	}
	return strings.Trim(b.String(), "_")
}
