package wire_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"temperedlb/internal/comm"
	"temperedlb/internal/comm/wire"
	"temperedlb/internal/core"
	"temperedlb/internal/termination"

	_ "temperedlb/internal/amt"         // registers payload ids 2–10
	_ "temperedlb/internal/lb/tempered" // registers payload ids 32–34
)

// informMsg returns a gossip message in explicit form, as the balancer
// sends it: by pointer.
func informMsg(entries int) *core.InformMsg {
	m := &core.InformMsg{Round: 3, Entries: make([]core.RankLoad, entries)}
	for i := range m.Entries {
		m.Entries[i] = core.RankLoad{Rank: core.Rank(i), Load: float64(i) + 0.5}
	}
	return m
}

// snapshotMsg returns a fan-out of a 4096-rank gossip state that has
// learned entries: a message in snapshot form, carrying the same set as
// the explicit list of entries in rank order.
func snapshotMsg(entries []core.RankLoad) *core.InformMsg {
	cfg := core.Tempered()
	st := core.NewInformState(0, 4096, &cfg, core.SeededRNG(1))
	sends, _ := st.Receive(core.InformMsg{Round: 2, Entries: entries})
	return sends[0].Msg
}

// sizedPayloads writes the Any encoding of values of every payload type
// the runtime (ids 2–10) and the balancer (32–34) register. The
// envelope types are unexported, so the table spells their wire form and
// the test decodes it into the real value first — a row that has drifted
// from its codec fails to decode or to re-encode, it cannot pass.
var sizedPayloads = []struct {
	name string
	id   wire.PayloadID
	any  func(e *wire.Encoder)
}{
	{"nil", 0, func(e *wire.Encoder) { e.Any(nil) }},
	{"objEnvelope/nil data", 2, func(e *wire.Encoder) { e.U16(2); e.I64(77); e.I32(3); e.Any(nil) }},
	{"objEnvelope/InformMsg", 2, func(e *wire.Encoder) { e.U16(2); e.I64(77); e.I32(3); e.Any(informMsg(5)) }},
	{"migrateEnvelope/float64 state", 3, func(e *wire.Encoder) { e.U16(3); e.I64(78); e.Any(2.5) }},
	{"migrateEnvelope/nil state", 3, func(e *wire.Encoder) { e.U16(3); e.I64(78); e.Any(nil) }},
	{"locEnvelope", 4, func(e *wire.Encoder) { e.U16(4); e.I64(79); e.I32(6) }},
	{"Token", 5, func(e *wire.Encoder) { e.Any(&termination.Token{Count: -2, Color: termination.Black, Wave: 9}) }},
	{"collMsg/nil Values", 6, func(e *wire.Encoder) { e.U16(6); e.I64(4); e.F64Slice(nil) }},
	{"collMsg/empty Values", 6, func(e *wire.Encoder) { e.U16(6); e.I64(4); e.F64Slice([]float64{}) }},
	{"collMsg/74 Values", 6, func(e *wire.Encoder) { e.U16(6); e.I64(4); e.F64Slice(make([]float64, 74)) }},
	{"int64", 7, func(e *wire.Encoder) { e.Any(int64(-1)) }},
	{"int", 8, func(e *wire.Encoder) { e.Any(12) }},
	{"float64", 9, func(e *wire.Encoder) { e.Any(0.25) }},
	{"core.Rank", 10, func(e *wire.Encoder) { e.Any(core.Rank(5)) }},
	{"*InformMsg/nil Entries", 32, func(e *wire.Encoder) { e.Any(&core.InformMsg{Round: 1}) }},
	{"*InformMsg/empty Entries", 32, func(e *wire.Encoder) { e.Any(&core.InformMsg{Round: 1, Entries: []core.RankLoad{}}) }},
	{"*InformMsg/1 entry", 32, func(e *wire.Encoder) { e.Any(informMsg(1)) }},
	{"*InformMsg/4096 entries", 32, func(e *wire.Encoder) { e.Any(informMsg(4096)) }},
	{"*InformMsg/snapshot", 32, func(e *wire.Encoder) { e.Any(snapshotMsg(informMsg(70).Entries)) }},
	{"xferMsg", 33, func(e *wire.Encoder) { e.U16(33); e.I64(80); e.F64(1.75) }},
	{"InformMsg/nil Entries", 34, func(e *wire.Encoder) { e.Any(core.InformMsg{Round: 1}) }},
	{"InformMsg/1 entry", 34, func(e *wire.Encoder) { e.Any(*informMsg(1)) }},
	{"InformMsg/snapshot", 34, func(e *wire.Encoder) { e.Any(*snapshotMsg(informMsg(70).Entries)) }},
}

// messageBody is a message frame's body around the given Any encoding.
func messageBody(payload func(e *wire.Encoder)) []byte {
	var e wire.Encoder
	e.U32(1) // From
	e.U32(2) // To
	e.U16(3) // Kind
	e.I32(4) // Handler
	e.I64(5) // Seq
	e.I64(6) // MsgID
	e.I64(7) // Epoch
	payload(&e)
	return e.Bytes()
}

// checkFrameIdentity holds m to the identity byte accounting rests on:
// a frame is MessageOverhead plus the sized payload.
func checkFrameIdentity(t *testing.T, m comm.Message) []byte {
	t.Helper()
	frame := wire.AppendMessage(nil, m)
	if want := wire.MessageOverhead + wire.PayloadSize(m.Data); len(frame) != want {
		t.Errorf("%T: frame is %d bytes, MessageOverhead %d + PayloadSize %d = %d",
			m.Data, len(frame), wire.MessageOverhead, wire.PayloadSize(m.Data), want)
	}
	return frame
}

func TestFrameIsOverheadPlusPayloadSize(t *testing.T) {
	covered := map[wire.PayloadID]bool{}
	for _, tc := range sizedPayloads {
		covered[tc.id] = true
		body := messageBody(tc.any)
		m, err := wire.DecodeMessage(body, 8)
		if err != nil {
			t.Errorf("%s: the table's encoding does not decode: %v", tc.name, err)
			continue
		}
		if frame := checkFrameIdentity(t, m); !bytes.Equal(frame[wire.FramePrefixLen:], body) {
			t.Errorf("%s: the table's encoding is not what the codec writes:\ntable %x\ncodec %x", tc.name, body, frame[wire.FramePrefixLen:])
		}
	}
	for _, id := range wire.RegisteredIDs() {
		if id < 64 && !covered[id] {
			t.Errorf("payload id %d is registered by the runtime or the balancer and missing from sizedPayloads", id)
		}
	}
}

// TestSnapshotHasTheListsWireForm: a gossip payload in snapshot form
// and the rank-ordered explicit list of the same set are one message on
// the wire — the same frame bytes and the same PayloadSize — and either
// decodes to that list.
func TestSnapshotHasTheListsWireForm(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 63, 64, 65, 700, 4095} {
		learned := make([]core.RankLoad, n)
		for i, r := range rng.Perm(4095)[:n] {
			learned[i] = core.RankLoad{Rank: core.Rank(r + 1), Load: rng.Float64()}
		}
		snap := snapshotMsg(learned)
		list := slices.Clone(learned)
		slices.SortFunc(list, func(a, b core.RankLoad) int { return int(a.Rank - b.Rank) })
		explicit := &core.InformMsg{Round: snap.Round, Entries: list}
		if snap.Len() != n {
			t.Fatalf("%d entries: the snapshot has %d", n, snap.Len())
		}
		frame := func(data *core.InformMsg) []byte {
			return wire.AppendMessage(nil, comm.Message{From: 1, To: 2, Handler: 4, Seq: 5, Data: data})
		}
		fs, fe := frame(snap), frame(explicit)
		if !bytes.Equal(fs, fe) {
			t.Fatalf("%d entries: snapshot and list frames differ", n)
		}
		if ps, pe := wire.PayloadSize(snap), wire.PayloadSize(explicit); ps != pe {
			t.Fatalf("%d entries: PayloadSize %d for the snapshot, %d for the list", n, ps, pe)
		}
		m, err := wire.DecodeMessage(fs[wire.FramePrefixLen:], 8)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Data.(*core.InformMsg); got.Round != snap.Round || !slices.Equal(got.Entries, list) {
			t.Fatalf("%d entries: decoded %d entries of round %d, want the rank-ordered list", n, len(got.Entries), got.Round)
		}
	}
}

// TestInformValueFormHasThePointerFormsBody: a gossip message encoded as
// a core.InformMsg value (id 34, what the benchmark's probes send) is
// the bytes of the same message sent by pointer (id 32) behind its own
// id, for a snapshot and for an explicit list, and decodes to the same
// list.
func TestInformValueFormHasThePointerFormsBody(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	learned := make([]core.RankLoad, 300)
	for i, r := range rng.Perm(4095)[:len(learned)] {
		learned[i] = core.RankLoad{Rank: core.Rank(r + 1), Load: rng.Float64()}
	}
	encode := func(v any) []byte {
		var e wire.Encoder
		e.Any(v)
		return e.Bytes()
	}
	for _, tc := range []struct {
		name string
		msg  *core.InformMsg
	}{
		{"snapshot", snapshotMsg(learned)},
		{"explicit list", &core.InformMsg{Round: 4, Entries: learned}},
		{"nil list", &core.InformMsg{Round: 1}},
	} {
		ptr, val := encode(tc.msg), encode(*tc.msg)
		if ptr[0] != 0 || ptr[1] != 32 || val[0] != 0 || val[1] != 34 {
			t.Fatalf("%s: payload ids %d and %d, want 32 by pointer and 34 by value",
				tc.name, int(ptr[0])<<8|int(ptr[1]), int(val[0])<<8|int(val[1]))
		}
		if !bytes.Equal(ptr[2:], val[2:]) {
			t.Fatalf("%s: the value form's body differs from the pointer form's:\npointer %x\nvalue   %x", tc.name, ptr[2:], val[2:])
		}
		if ps, pv := wire.PayloadSize(tc.msg), wire.PayloadSize(*tc.msg); ps != len(ptr) || pv != len(val) {
			t.Fatalf("%s: PayloadSize %d by pointer and %d by value, encodings of %d and %d bytes", tc.name, ps, pv, len(ptr), len(val))
		}
		frame := wire.AppendMessage(nil, comm.Message{From: 1, To: 2, Handler: 4, Data: *tc.msg})
		m, err := wire.DecodeMessage(frame[wire.FramePrefixLen:], 8)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := m.Data.(core.InformMsg)
		if !ok || got.Round != tc.msg.Round || !slices.Equal(got.Entries, rowsOf(tc.msg)) {
			t.Fatalf("%s: the value form decodes to %#v", tc.name, m.Data)
		}
	}
}

// rowsOf returns m's entries in the order its Rows walks them.
func rowsOf(m *core.InformMsg) []core.RankLoad {
	var out []core.RankLoad
	m.Rows(0, m.Len(), func(e core.RankLoad) { out = append(out, e) })
	return out
}

// everyFieldSet holds, for every payload type the runtime and the
// balancer register, one value in which every field is set — envelopes
// around non-nil data, slices of more than one row — in Any encoding.
var everyFieldSet = []func(e *wire.Encoder){
	func(e *wire.Encoder) { e.U16(2); e.I64(77); e.I32(3); e.Any(informMsg(5)) },
	func(e *wire.Encoder) { e.U16(3); e.I64(78); e.Any(2.5) },
	func(e *wire.Encoder) { e.U16(4); e.I64(79); e.I32(6) },
	func(e *wire.Encoder) { e.Any(&termination.Token{Count: -2, Color: termination.Black, Wave: 9}) },
	func(e *wire.Encoder) { e.U16(6); e.I64(4); e.F64Slice([]float64{1, -0.5, 3}) },
	func(e *wire.Encoder) { e.Any(int64(-1)) },
	func(e *wire.Encoder) { e.Any(12) },
	func(e *wire.Encoder) { e.Any(0.25) },
	func(e *wire.Encoder) { e.Any(core.Rank(5)) },
	func(e *wire.Encoder) { e.Any(informMsg(3)) },
	func(e *wire.Encoder) { e.U16(33); e.I64(80); e.F64(1.75) },
	func(e *wire.Encoder) { e.Any(*informMsg(3)) },
}

// fullValues decodes everyFieldSet, failing t unless it names every
// registered runtime and balancer type once.
func fullValues(t *testing.T) map[wire.PayloadID]any {
	t.Helper()
	vals := map[wire.PayloadID]any{}
	for _, any := range everyFieldSet {
		body := messageBody(any)
		m, err := wire.DecodeMessage(body, 8)
		if err != nil {
			t.Fatalf("everyFieldSet: %x does not decode: %v", body, err)
		}
		at := wire.MessageOverhead - wire.FramePrefixLen // the payload id
		vals[wire.PayloadID(body[at])<<8|wire.PayloadID(body[at+1])] = m.Data
	}
	for _, id := range wire.RegisteredIDs() {
		if _, ok := vals[id]; id < 64 && !ok {
			t.Errorf("payload id %d is registered by the runtime or the balancer and missing from everyFieldSet", id)
		}
	}
	return vals
}

// zeroOf returns the zero value of v's type, or for a pointer type a
// pointer to its element type's zero value — the value a codec that
// dereferences can encode.
func zeroOf(v any) any {
	t := reflect.TypeOf(v)
	if t.Kind() == reflect.Pointer {
		return reflect.New(t.Elem()).Interface()
	}
	return reflect.Zero(t).Interface()
}

// encodedLen is the length of v's Any encoding, written out in full:
// what PayloadSize must return, found without it.
func encodedLen(v any) int {
	var e wire.Encoder
	e.Any(v)
	return len(e.Bytes())
}

// TestFixedWidthSizeIsTheTypes: PayloadSize remembers the size of a codec
// that called neither Rows nor a nested Any. Each type it remembers must
// weigh the same at its zero value and with every field set — sized in
// that order, so that the zero value is the one remembered — and each
// size must be what the encoder writes. The remembered types are exactly
// the fixed-width ones: tokens, transfer proposals, location updates and
// the scalars.
func TestFixedWidthSizeIsTheTypes(t *testing.T) {
	want := []wire.PayloadID{4, 5, 7, 8, 9, 10, 33}
	var cached []wire.PayloadID
	for id, full := range fullValues(t) {
		zero := zeroOf(full)
		sz, sf := wire.PayloadSize(zero), wire.PayloadSize(full)
		if ez, ef := encodedLen(zero), encodedLen(full); sz != ez || sf != ef {
			t.Errorf("id %d (%T): PayloadSize %d at the zero value and %d with every field set, encodings of %d and %d bytes", id, full, sz, sf, ez, ef)
		}
		if n := wire.FixedSize(id); n > 0 {
			cached = append(cached, id)
			if sz != n || sf != n {
				t.Errorf("id %d (%T): remembered as %d bytes, sized %d at the zero value and %d with every field set", id, full, n, sz, sf)
			}
		}
	}
	slices.Sort(cached)
	if !slices.Equal(cached, want) {
		t.Errorf("remembered sizes for ids %v, want %v", cached, want)
	}
}

// FuzzFrameIsOverheadPlusPayloadSize extends the table to whatever
// decodes: nested envelopes, any slice length. The seeds are the table
// and a value of every registered type with every field set.
func FuzzFrameIsOverheadPlusPayloadSize(f *testing.F) {
	for _, tc := range sizedPayloads {
		f.Add(messageBody(tc.any))
	}
	for _, any := range everyFieldSet {
		f.Add(messageBody(any))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if m, err := wire.DecodeMessage(body, 8); err == nil {
			checkFrameIdentity(t, m)
		}
	})
}

var sizeSink int

func BenchmarkPayloadSize(b *testing.B) {
	for _, entries := range []int{1, 4096} {
		var data any = informMsg(entries)
		b.Run(fmt.Sprintf("InformMsg/entries=%d", entries), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sizeSink = wire.PayloadSize(data)
			}
		})
	}
}

// BenchmarkPayloadSizeParallel is BenchmarkPayloadSize from every core at
// once, as the ranks' byte counting runs it: what a lookup shares
// between sizing goroutines — a lock's reader count did, the registry
// snapshot does not — shows here and not in the serial row.
func BenchmarkPayloadSizeParallel(b *testing.B) {
	for _, entries := range []int{1, 4096} {
		var data any = informMsg(entries)
		b.Run(fmt.Sprintf("InformMsg/entries=%d", entries), func(b *testing.B) {
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				n := 0
				for pb.Next() {
					n += wire.PayloadSize(data)
				}
				if n < 0 {
					sizeSink = n
				}
			})
		})
	}
}

// TestPayloadSizeIsArithmetic: sizing a knowledge vector must not walk
// it. A walk would make 4096 entries cost about a thousand times one;
// the best of several timings of each keeps scheduler noise out of a
// bound of two.
func TestPayloadSizeIsArithmetic(t *testing.T) {
	best := func(data any) time.Duration {
		min := time.Duration(1 << 62)
		for rep := 0; rep < 7; rep++ {
			start := time.Now()
			for i := 0; i < 5000; i++ {
				sizeSink = wire.PayloadSize(data)
			}
			if d := time.Since(start); d < min {
				min = d
			}
		}
		return min
	}
	one, many := best(informMsg(1)), best(informMsg(4096))
	if many >= 2*one {
		t.Errorf("PayloadSize(InformMsg) took %v per 5000 at 4096 entries against %v at 1: it loops over the entries", many, one)
	}
	if got, want := wire.PayloadSize(informMsg(4096)), 2+8+4+4096*12; got != want {
		t.Errorf("PayloadSize(InformMsg, 4096 entries) = %d, want %d", got, want)
	}
}
