package wire

import (
	"bytes"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"temperedlb/internal/comm"
)

// testPayload exercises every encoder primitive, including the
// nil-vs-empty slice distinction and a nested Any.
type testPayload struct {
	A     int64
	B     []float64
	Flag  bool
	Inner any
}

type innerPayload struct {
	X float64
}

var registerTestPayloads = sync.OnceFunc(func() {
	RegisterPayload(200, func(e *Encoder, p testPayload) {
		e.I64(p.A)
		e.F64Slice(p.B)
		e.Bool(p.Flag)
		e.Any(p.Inner)
	}, func(d *Decoder) testPayload {
		return testPayload{
			A:     d.I64(),
			B:     d.F64Slice(),
			Flag:  d.Bool(),
			Inner: d.Any(),
		}
	})
	RegisterPayload(201, func(e *Encoder, p innerPayload) {
		e.F64(p.X)
	}, func(d *Decoder) innerPayload {
		return innerPayload{X: d.F64()}
	})
})

// frameBody strips the length word and the version+type header from a
// single encoded frame, returning the body a frameReader would
// hand to DecodeMessage.
func frameBody(t *testing.T, frame []byte) []byte {
	t.Helper()
	if len(frame) < 4+frameHeaderLen {
		t.Fatalf("frame too short: %d bytes", len(frame))
	}
	return frame[4+frameHeaderLen:]
}

func TestMessageRoundTrip(t *testing.T) {
	registerTestPayloads()
	msgs := []comm.Message{
		{From: 0, To: 1, Kind: comm.Kind(0), Handler: 7, Seq: 1, MsgID: 42, Data: nil},
		{From: 3, To: 0, Kind: comm.Kind(2), Handler: -1, Seq: 99, MsgID: -5,
			Data: testPayload{A: -12345, B: []float64{1.5, math.Inf(1), math.Copysign(0, -1)}, Flag: true,
				Inner: innerPayload{X: 2.25}}},
		{From: 1, To: 2, Kind: comm.Kind(5), Handler: 0, Seq: 0, MsgID: 0,
			Data: testPayload{A: 0, B: []float64{}, Flag: false}},
		{From: 2, To: 3, Kind: comm.Kind(1), Handler: 3, Seq: 8, MsgID: 9,
			Data: testPayload{A: 1, B: nil, Flag: true}},
	}
	for i, m := range msgs {
		frame := AppendMessage(nil, m)
		got, err := DecodeMessage(frameBody(t, frame), 4)
		if err != nil {
			t.Fatalf("msg %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("msg %d: round trip mismatch:\n got %+v\nwant %+v", i, got, m)
		}
		// nil-vs-empty must survive, not just DeepEqual-match.
		if tp, ok := m.Data.(testPayload); ok {
			gp := got.Data.(testPayload)
			if (tp.B == nil) != (gp.B == nil) {
				t.Errorf("msg %d: nil-vs-empty slice not preserved: sent nil=%v got nil=%v", i, tp.B == nil, gp.B == nil)
			}
		}
	}
}

func TestEncodingDeterministic(t *testing.T) {
	registerTestPayloads()
	m := comm.Message{From: 1, To: 0, Kind: 3, Handler: 2, Seq: 17, MsgID: 4,
		Data: testPayload{A: 7, B: []float64{3.14}, Flag: true, Inner: innerPayload{X: -1}}}
	a := AppendMessage(nil, m)
	b := AppendMessage(nil, m)
	if !bytes.Equal(a, b) {
		t.Fatalf("two encodings of the same message differ:\n%x\n%x", a, b)
	}
}

func TestDecodeMessageErrors(t *testing.T) {
	registerTestPayloads()
	m := comm.Message{From: 0, To: 1, Kind: 1, Seq: 1, MsgID: 1}
	good := frameBody(t, AppendMessage(nil, m))

	cases := []struct {
		name  string
		body  []byte
		ranks int
	}{
		{"truncated", good[:len(good)-3], 2},
		{"empty", nil, 2},
		{"trailing garbage", append(append([]byte(nil), good...), 0xFF), 2},
		{"from out of range", frameBody(t, AppendMessage(nil, comm.Message{From: 5, To: 1})), 2},
		{"to out of range", frameBody(t, AppendMessage(nil, comm.Message{From: 0, To: 2})), 2},
		{"kind out of range", frameBody(t, AppendMessage(nil, comm.Message{From: 0, To: 1, Kind: comm.MaxKinds})), 2},
	}
	for _, tc := range cases {
		if _, err := DecodeMessage(tc.body, tc.ranks); err == nil {
			t.Errorf("%s: want error, got nil", tc.name)
		}
	}

	// Unknown payload id must error, never panic.
	var e Encoder
	start := beginFrame(&e, frameMessage)
	e.U32(0)
	e.U32(1)
	e.U16(0)
	e.I32(0)
	e.I64(1)
	e.I64(1)
	e.U16(9999) // unregistered payload id
	body := frameBody(t, endFrame(&e, start))
	if _, err := DecodeMessage(body, 2); err == nil {
		t.Error("unknown payload id: want error, got nil")
	}
}

func TestEncodeUnregisteredPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("encoding an unregistered payload type should panic")
		}
	}()
	type nobody struct{ X int }
	var e Encoder
	e.Any(nobody{1})
}

// TestPayloadSizeUnregisteredCountsZero: a value with no codec has no
// wire form, so sizing it is zero rather than Any's panic — at the top,
// and nested, where the envelope around it is all that is counted.
func TestPayloadSizeUnregisteredCountsZero(t *testing.T) {
	registerTestPayloads()
	type nobody struct{ X int }
	if n := PayloadSize(nobody{1}); n != 0 {
		t.Errorf("PayloadSize(unregistered) = %d, want 0", n)
	}
	const envelope = 2 + 8 + 4 + 1 // id, A, nil B, Flag
	if n := PayloadSize(testPayload{Inner: nobody{1}}); n != envelope {
		t.Errorf("PayloadSize(envelope around unregistered) = %d, want %d", n, envelope)
	}
	if n := PayloadSize(testPayload{}); n != envelope+2 {
		t.Errorf("PayloadSize(envelope around nil) = %d, want %d", n, envelope+2)
	}
}

// lateProbe is registered by TestRegisterWhileSizing alone, once per
// process, at an application id.
type lateProbe struct{ V int64 }

var lateProbeTaken atomic.Bool

// TestRegisterWhileSizing: lookups read the registry without a lock, so a
// registration made while other goroutines size, encode and decode must
// race with none of them (go test -race) and must reach all of them: a
// lateProbe has no wire form — it weighs 0 — until its codec is
// published, then weighs 10 everywhere, and the registered payloads keep
// round-tripping throughout.
func TestRegisterWhileSizing(t *testing.T) {
	if !lateProbeTaken.CompareAndSwap(false, true) {
		t.Skip("lateProbe registers once per process")
	}
	registerTestPayloads()
	const workers = 4
	var started, done sync.WaitGroup
	started.Add(workers)
	done.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer done.Done()
			m := comm.Message{From: 1, To: 2, Kind: 3,
				Data: testPayload{A: int64(w), B: []float64{1, 2}, Inner: innerPayload{X: 3}}}
			var frame []byte
			for i := 0; ; i++ {
				frame = AppendMessage(frame[:0], m)
				got, err := DecodeMessage(frame[4+frameHeaderLen:], 4)
				if err != nil || !reflect.DeepEqual(got, m) || len(frame) != MessageOverhead+PayloadSize(m.Data) {
					t.Errorf("worker %d: round trip %+v, %v (frame %d bytes)", w, got, err, len(frame))
					return
				}
				n := PayloadSize(lateProbe{V: int64(i)})
				if i == 0 {
					started.Done()
				}
				switch n {
				case 0: // not published yet
				case 2 + 8:
					return
				default:
					t.Errorf("worker %d: PayloadSize(lateProbe) = %d, want 0 or 10", w, n)
					return
				}
			}
		}()
	}
	started.Wait()
	RegisterPayload(202, func(e *Encoder, p lateProbe) { e.I64(p.V) },
		func(d *Decoder) lateProbe { return lateProbe{V: d.I64()} })
	done.Wait()
	m := comm.Message{From: 0, To: 1, Data: lateProbe{V: -9}}
	if got, err := DecodeMessage(frameBody(t, AppendMessage(nil, m)), 2); err != nil || got.Data != m.Data {
		t.Errorf("lateProbe round trip: %+v, %v", got.Data, err)
	}
}

func TestHelloRoundTrip(t *testing.T) {
	h := helloBody{JobID: 0xDEADBEEF, Ranks: 12, Nodes: 3, Node: 2, Lo: 8, Hi: 12}
	frame := appendHello(nil, h)
	got, err := decodeHello(frame[4+frameHeaderLen:])
	if err != nil {
		t.Fatalf("decode hello: %v", err)
	}
	if got != h {
		t.Fatalf("hello round trip: got %+v want %+v", got, h)
	}
	if _, err := decodeHello(frame[4+frameHeaderLen : len(frame)-2]); err == nil {
		t.Error("truncated hello: want error")
	}
}

func TestDecoderStickyError(t *testing.T) {
	d := NewDecoder([]byte{0x01})
	d.U64() // fails: only 1 byte
	if d.Err() == nil {
		t.Fatal("want truncation error")
	}
	first := d.Err()
	if v := d.U32(); v != 0 {
		t.Errorf("read after error should return zero, got %d", v)
	}
	if d.Err() != first {
		t.Error("sticky error was overwritten")
	}
}

func TestF64SliceLengthBomb(t *testing.T) {
	// A claimed length far beyond the buffer must error before
	// allocating.
	var e Encoder
	e.U32(1 << 30)
	d := NewDecoder(e.Bytes())
	if v := d.F64Slice(); v != nil || d.Err() == nil {
		t.Fatalf("length bomb: want nil+error, got %d entries, err=%v", len(v), d.Err())
	}
}

func TestSplitRanks(t *testing.T) {
	cases := []struct {
		n, m int
		want []int
	}{
		{4, 1, []int{0, 4}},
		{4, 2, []int{0, 2, 4}},
		{5, 2, []int{0, 3, 5}},
		{3, 3, []int{0, 1, 2, 3}},
		{7, 3, []int{0, 3, 5, 7}},
	}
	for _, tc := range cases {
		got := SplitRanks(tc.n, tc.m)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("SplitRanks(%d,%d) = %+v, want %+v", tc.n, tc.m, got, tc.want)
		}
	}
	for _, bad := range [][2]int{{0, 1}, {1, 0}, {2, 3}} {
		func() {
			defer func() { recover() }()
			SplitRanks(bad[0], bad[1])
			t.Errorf("SplitRanks(%d,%d) should panic", bad[0], bad[1])
		}()
	}
}

func TestParsePeers(t *testing.T) {
	addrs, err := ParsePeers("# comment\n1 127.0.0.1:9002\n\n0 127.0.0.1:9001\n", 2)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if want := []string{"127.0.0.1:9001", "127.0.0.1:9002"}; !reflect.DeepEqual(addrs, want) {
		t.Fatalf("got %q want %q", addrs, want)
	}
	for name, content := range map[string]string{
		"missing node":   "0 a:1\n",
		"duplicate node": "0 a:1\n0 b:2\n",
		"bad index":      "7 a:1\n0 b:2\n",
		"malformed line": "0 a:1 extra\n1 b:2\n",
	} {
		if _, err := ParsePeers(content, 2); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
}
