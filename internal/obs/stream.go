package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Snapshot is one frame of the live observability stream: the state of a
// balancing run at one instant, small enough to publish every iteration
// and self-contained enough to render without history. Counter fields
// (messages, bytes, faults, collectives) are cumulative since the start
// of the run; consumers difference consecutive frames to obtain rates.
type Snapshot struct {
	// Seq and TimeMs are stamped by Stream.Publish: a dense frame
	// sequence number and milliseconds since the stream was created.
	Seq    int64   `json:"seq"`
	TimeMs float64 `json:"time_ms"`

	// Source names the producer ("distributed", "serve", or a
	// simulation configuration name); Phase locates the frame inside the
	// producer's protocol: "init", "iter", "commit" for balancer runs,
	// "phase" for the service's, "step" for per-timestep simulation frames.
	Source string `json:"source,omitempty"`
	Phase  string `json:"phase,omitempty"`

	// Step is the simulation timestep (Source = tracker frames only);
	// Trial and Iteration locate refinement frames.
	Step      int `json:"step,omitempty"`
	Trial     int `json:"trial,omitempty"`
	Iteration int `json:"iter,omitempty"`

	// Ranks is the rank count. Loads describes the per-rank loads in rank
	// order: the exact vector when len(Loads) == Ranks (simulation
	// frames, and every frame of a job of at most LoadCells ranks),
	// otherwise the cells of a LoadSummary — cell i holds the
	// largest load among ranks [i·Ranks/c, (i+1)·Ranks/c), c = len(Loads).
	// A consumer tells the two apart by comparing len(Loads) with Ranks.
	Ranks int       `json:"ranks"`
	Loads []float64 `json:"loads,omitempty"`

	// Imbalance statistics over the per-rank loads (all ranks, also when
	// Loads holds cells): O = MaxLoad, the mean, the population standard
	// deviation σ, and I = max/avg − 1.
	MaxLoad   float64 `json:"max_load"`
	MinLoad   float64 `json:"min_load"`
	AvgLoad   float64 `json:"avg_load"`
	StdDev    float64 `json:"stddev"`
	Imbalance float64 `json:"imbalance"`

	// Protocol traffic, cumulative: gossip messages and payload entries,
	// transfer proposals, and object migrations.
	GossipMsgs    int64 `json:"gossip_msgs,omitempty"`
	GossipEntries int64 `json:"gossip_entries,omitempty"`
	TransferMsgs  int64 `json:"transfer_msgs,omitempty"`
	Migrations    int64 `json:"migrations,omitempty"`

	// Transport totals, cumulative: every message of every kind, and
	// their payload bytes (counted whenever a stream or metrics is
	// attached, so always on a published frame).
	Msgs  int64 `json:"msgs,omitempty"`
	Bytes int64 `json:"bytes,omitempty"`

	// Fault injections and recovery, cumulative.
	Dropped    int64 `json:"dropped,omitempty"`
	Duplicated int64 `json:"duplicated,omitempty"`
	Retries    int64 `json:"retries,omitempty"`
	DupDrops   int64 `json:"dup_drops,omitempty"`

	// Collective rounds and epochs run by the publishing rank,
	// cumulative.
	Collectives int64 `json:"collectives,omitempty"`
	Epochs      int64 `json:"epochs,omitempty"`

	// Socket-transport totals, cumulative; zero on the in-memory
	// transport (a single-process run moves no wire bytes).
	WireBytesOut int64 `json:"wire_bytes_out,omitempty"`
	WireBytesIn  int64 `json:"wire_bytes_in,omitempty"`
	WirePeers    int64 `json:"wire_peers,omitempty"`

	// IterMs is the duration of the step this frame closes (slowest rank
	// for distributed frames), in milliseconds.
	IterMs float64 `json:"iter_ms,omitempty"`
}

// FillLoadStats computes the imbalance statistics from Loads. Ranks is
// set from len(Loads) when zero. A frame with no load vector is left
// untouched.
func (s *Snapshot) FillLoadStats() {
	if len(s.Loads) == 0 {
		return
	}
	if s.Ranks == 0 {
		s.Ranks = len(s.Loads)
	}
	max, min, sum := s.Loads[0], s.Loads[0], 0.0
	for _, l := range s.Loads {
		if l > max {
			max = l
		}
		if l < min {
			min = l
		}
		sum += l
	}
	avg := sum / float64(len(s.Loads))
	varSum := 0.0
	for _, l := range s.Loads {
		d := l - avg
		varSum += d * d
	}
	s.MaxLoad, s.MinLoad, s.AvgLoad = max, min, avg
	s.StdDev = math.Sqrt(varSum / float64(len(s.Loads)))
	if avg > 0 {
		s.Imbalance = max/avg - 1
	} else {
		s.Imbalance = 0
	}
}

// Stream is a lock-light publisher of Snapshot frames: a fixed-size ring
// of the most recent frames plus a set of subscribers with drop-oldest
// backpressure. Producers call Publish from any goroutine; a slow
// subscriber loses its oldest undelivered frames, never stalls the
// publisher, and the ring lets late joiners replay recent history.
//
// The disabled path is the nil *Stream: every producer guards its
// publishing block with one nil check, so runs without -serve keep their
// determinism and benchmark profiles untouched.
type Stream struct {
	start time.Time

	mu   sync.Mutex
	ring []Snapshot // capacity-sized; frame seq s lives at s % cap
	next int64      // seq to assign to the next published frame
	subs []*Subscriber
}

// DefaultStreamCapacity is the ring size used by NewStream when the
// caller passes a non-positive capacity: enough for several hundred
// iterations of history without unbounded growth.
const DefaultStreamCapacity = 512

// NewStream creates a stream holding the last capacity frames
// (DefaultStreamCapacity when capacity <= 0).
func NewStream(capacity int) *Stream {
	if capacity <= 0 {
		capacity = DefaultStreamCapacity
	}
	return &Stream{start: time.Now(), ring: make([]Snapshot, 0, capacity)}
}

// Publish stamps the frame's Seq and TimeMs, stores it in the ring
// (evicting the oldest frame when full), fans it out to subscribers, and
// returns the stamped frame. Safe for concurrent use; the fan-out
// happens outside the stream lock.
func (s *Stream) Publish(f Snapshot) Snapshot {
	s.mu.Lock()
	f.Seq = s.next
	f.TimeMs = float64(time.Since(s.start).Nanoseconds()) / 1e6
	s.next++
	if len(s.ring) < cap(s.ring) {
		s.ring = append(s.ring, f)
	} else {
		s.ring[f.Seq%int64(cap(s.ring))] = f
	}
	var subs []*Subscriber
	if len(s.subs) > 0 {
		subs = append(subs, s.subs...)
	}
	s.mu.Unlock()
	for _, sub := range subs {
		sub.offer(f)
	}
	return f
}

// Len returns the number of frames currently held in the ring.
func (s *Stream) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.ring)
}

// Latest returns the most recently published frame, or false when
// nothing has been published yet.
func (s *Stream) Latest() (Snapshot, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.next == 0 {
		return Snapshot{}, false
	}
	return s.ring[(s.next-1)%int64(cap(s.ring))], true
}

// Frames returns a copy of the ring's frames in publication order
// (oldest first).
func (s *Stream) Frames() []Snapshot { return s.Since(0) }

// Since returns a copy of the ring's frames with Seq >= seq, oldest
// first. Frames already evicted from the ring are gone; Since(0) is the
// full surviving history.
func (s *Stream) Since(seq int64) []Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	oldest := s.next - int64(len(s.ring))
	if seq < oldest {
		seq = oldest
	}
	if seq >= s.next {
		return nil
	}
	out := make([]Snapshot, 0, s.next-seq)
	for q := seq; q < s.next; q++ {
		out = append(out, s.ring[q%int64(cap(s.ring))])
	}
	return out
}

// Subscriber receives published frames on a buffered channel. When the
// buffer is full the publisher evicts the subscriber's oldest
// undelivered frame (counted by Dropped) rather than blocking.
type Subscriber struct {
	ch      chan Snapshot
	dropped atomic.Int64
}

// Subscribe registers a subscriber with the given channel buffer
// (minimum 1). Unsubscribe it when done; the channel is never closed by
// the stream, so receivers should select against their own cancellation
// signal.
func (s *Stream) Subscribe(buffer int) *Subscriber {
	if buffer < 1 {
		buffer = 1
	}
	sub := &Subscriber{ch: make(chan Snapshot, buffer)}
	s.mu.Lock()
	s.subs = append(s.subs, sub)
	s.mu.Unlock()
	return sub
}

// Unsubscribe removes the subscriber; no frames are delivered after it
// returns.
func (s *Stream) Unsubscribe(sub *Subscriber) {
	s.mu.Lock()
	for i, have := range s.subs {
		if have == sub {
			s.subs = append(s.subs[:i], s.subs[i+1:]...)
			break
		}
	}
	s.mu.Unlock()
}

// Frames returns the subscriber's delivery channel.
func (sub *Subscriber) Frames() <-chan Snapshot { return sub.ch }

// Dropped returns how many frames were evicted undelivered because the
// subscriber fell behind.
func (sub *Subscriber) Dropped() int64 { return sub.dropped.Load() }

// offer delivers one frame with drop-oldest backpressure: if the buffer
// is full, evict the oldest queued frame and retry once. Runs outside
// the stream lock so a blocked channel can never serialize publishers,
// and never blocks the calling goroutine.
func (sub *Subscriber) offer(f Snapshot) {
	select {
	case sub.ch <- f:
		return
	default:
	}
	select {
	case <-sub.ch:
		sub.dropped.Add(1)
	default:
	}
	select {
	case sub.ch <- f:
	default:
		// Another publisher refilled the buffer between evict and retry:
		// count this frame as the dropped one and move on.
		sub.dropped.Add(1)
	}
}

// WriteSnapshots writes frames as NDJSON (one JSON object per line), the
// stream's recording format: `lbplay -frames` produces it and
// `lbtop -replay` consumes it.
func WriteSnapshots(w io.Writer, frames []Snapshot) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range frames {
		if err := enc.Encode(&frames[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadSnapshots reads an NDJSON frame recording, skipping blank lines.
func ReadSnapshots(r io.Reader) ([]Snapshot, error) {
	var out []Snapshot
	dec := json.NewDecoder(r)
	for {
		var f Snapshot
		if err := dec.Decode(&f); err == io.EOF {
			return out, nil
		} else if err != nil {
			return out, fmt.Errorf("obs: frame %d: %w", len(out), err)
		}
		out = append(out, f)
	}
}
