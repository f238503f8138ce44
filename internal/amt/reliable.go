package amt

import (
	"fmt"
	"sort"
	"time"

	"temperedlb/internal/clock"
	"temperedlb/internal/comm"
	"temperedlb/internal/obs"
)

// Reliability layer: exactly-once delivery of epoch messages over a
// transport that drops and duplicates.
//
// When a fault plan drops or duplicates counted kinds, classical Safra
// accounting breaks both ways: a dropped message leaves the global
// balance permanently positive (the epoch never terminates) and a
// duplicated one drives it negative (the epoch can terminate early).
// The runtime therefore switches the detectors to ack-based
// (sender-credit) accounting:
//
//   - every counted send carries a MsgID unique per (sender, dest) pair
//     and is remembered by the sender until acknowledged;
//   - the receiver deduplicates per sender, acknowledges every copy
//     (kindAck, uncounted control traffic), and blackens without
//     touching its counter (termination.Detector.OnDeliver);
//   - the first ack retires the sender's credit
//     (termination.Detector.OnAck), so each counter equals the rank's
//     unacknowledged sends — non-negative, summing to the global number
//     of unacknowledged messages;
//   - unacknowledged sends are retransmitted with capped exponential
//     backoff whenever the rank goes passive: their earliest deadline is
//     the timeout of the pump's wait (Context.pump).
//
// Termination (all counters zero in a white wave) then means every send
// was acknowledged, which implies every send was delivered exactly once
// — and no pending entry can outlive its epoch, so no timer state leaks
// across epochs. Late duplicates of an earlier epoch's messages are
// absorbed by the dedup filter before the "message for finished epoch"
// guard, and late acks for retired credits are ignored.

// Retransmission pacing floors. SetFaults derives the first timeout
// from the fault plan (never below minTimeout); the backoff cap is
// max(minBackoffCap, first timeout), so a retry never comes sooner after
// its previous attempt than the first one did.
const (
	minTimeout    = 2 * time.Millisecond
	minBackoffCap = 64 * time.Millisecond
)

// pendKey identifies one unacknowledged send. MsgIDs are per-destination
// sequences, so the pair is unique for the context's lifetime.
type pendKey struct {
	dest int
	id   int64
}

// relPending is one unacknowledged counted send.
type relPending struct {
	m        comm.Message
	attempts int
	deadline time.Time
}

// seenSet deduplicates one sender's MsgID stream. IDs arrive from a
// contiguous per-(sender,dest) sequence, so a low-water mark absorbs the
// common case and the sparse overflow map stays tiny (only IDs that
// overtook a delayed predecessor).
type seenSet struct {
	low    int64
	sparse map[int64]struct{}
}

func (s *seenSet) seen(id int64) bool {
	if id <= s.low {
		return true
	}
	_, ok := s.sparse[id]
	return ok
}

func (s *seenSet) add(id int64) {
	if id == s.low+1 {
		s.low++
		for {
			if _, ok := s.sparse[s.low+1]; !ok {
				return
			}
			delete(s.sparse, s.low+1)
			s.low++
		}
	}
	if s.sparse == nil {
		s.sparse = make(map[int64]struct{})
	}
	s.sparse[id] = struct{}{}
}

// reliableState is one context's half of the protocol; nil when the
// runtime has no lossy fault plan, which keeps the fault-free hot path
// at a single pointer check.
type reliableState struct {
	seq       []int64 // next MsgID per destination
	pending   map[pendKey]*relPending
	seen      []seenSet // per-sender dedup
	base, cap time.Duration
}

func newReliableState(n int, base time.Duration) *reliableState {
	return &reliableState{
		seq:     make([]int64, n),
		pending: make(map[pendKey]*relPending),
		seen:    make([]seenSet, n),
		base:    base,
		cap:     max(minBackoffCap, base),
	}
}

// backoff is how long a send waits for its ack after its attempts-th
// transmission: the first timeout, doubled per attempt up to the cap.
func (rl *reliableState) backoff(attempts int) time.Duration {
	d := rl.base
	for i := 1; i < attempts && d < rl.cap; i++ {
		d *= 2
	}
	return min(d, rl.cap)
}

// track stamps a fresh MsgID on a counted send and records the credit.
// Called from Context.send for epoch-tagged messages.
func (rl *reliableState) track(m *comm.Message) {
	rl.seq[m.To]++
	m.MsgID = rl.seq[m.To]
	rl.pending[pendKey{dest: m.To, id: m.MsgID}] = &relPending{
		m: *m, attempts: 1, deadline: clock.Now().Add(rl.backoff(1)),
	}
}

// accept runs the receiver side for a counted message carrying a MsgID:
// it acknowledges the copy and reports whether this is the first
// delivery (false = duplicate, already processed — drop it).
func (rc *Context) accept(m comm.Message) bool {
	rl := rc.rel
	s := &rl.seen[m.From]
	dup := s.seen(m.MsgID)
	if !dup {
		s.add(m.MsgID)
	}
	// Every copy is (re-)acknowledged: the first ack may have been
	// delayed or the sender may have retransmitted in the meantime.
	rc.rt.nw.Send(comm.Message{
		From: int(rc.rank), To: m.From, Kind: kindAck, Data: m.MsgID,
	})
	if dup {
		rc.Stats[DupDrops].Add(1)
		rc.Emit(obs.Event{Type: obs.EvDupDrop, Peer: m.From, Object: -1})
	}
	return !dup
}

// onAck retires the credit of an acknowledged send. Late acks for
// already-retired credits (re-acks triggered by retransmitted copies)
// are ignored. A credit cannot outlive its epoch (assertAcked), so the
// one it retires is the open epoch's.
func (rc *Context) onAck(m comm.Message) {
	key := pendKey{dest: m.From, id: m.Data.(int64)}
	if _, ok := rc.rel.pending[key]; !ok {
		return
	}
	delete(rc.rel.pending, key)
	rc.open.OnAck()
}

// nextRetryDeadline returns the earliest pending retransmission
// deadline; only called with pending non-empty.
func (rc *Context) nextRetryDeadline() time.Time {
	var min time.Time
	for _, p := range rc.rel.pending {
		if min.IsZero() || p.deadline.Before(min) {
			min = p.deadline
		}
	}
	return min
}

// retryDue retransmits every pending send whose deadline has passed,
// doubling its timeout up to the cap. Retransmissions bypass
// Context.send: the credit is already counted and the message keeps its
// MsgID, but the transport assigns a fresh sequence number, so the
// fault plan rolls fresh dice — a retransmission chain eventually gets
// a copy through.
func (rc *Context) retryDue() {
	if rc.rt.nw.Closed() {
		panic("amt: network closed inside an epoch or collective")
	}
	now := clock.Now()
	// Retransmit in (dest, id) order: retry timing is wall-clock-driven
	// and so inherently nondeterministic, but the relative order of the
	// retransmissions themselves must not also depend on map iteration.
	due := make([]pendKey, 0, len(rc.rel.pending))
	for k, p := range rc.rel.pending {
		if p.deadline.After(now) {
			continue
		}
		due = append(due, k)
	}
	sort.Slice(due, func(i, j int) bool {
		if due[i].dest != due[j].dest {
			return due[i].dest < due[j].dest
		}
		return due[i].id < due[j].id
	})
	for _, k := range due {
		p := rc.rel.pending[k]
		p.attempts++
		p.deadline = now.Add(rc.rel.backoff(p.attempts))
		rc.Stats[Retries].Add(1)
		rc.Emit(obs.Event{Type: obs.EvRetry, Peer: p.m.To, Object: -1,
			Epoch: p.m.Epoch, Value: float64(p.attempts)})
		rc.rt.nw.Send(p.m)
	}
}

// assertAcked panics if an epoch ends with unacknowledged sends — the
// termination invariant (all counters zero) makes that impossible, so
// tripping it means the accounting itself is broken.
func (rc *Context) assertAcked(epoch int64) {
	if rc.rel == nil || len(rc.rel.pending) == 0 {
		return
	}
	panic(fmt.Sprintf("amt: rank %d finished epoch %d with %d unacked sends",
		rc.rank, epoch, len(rc.rel.pending)))
}
