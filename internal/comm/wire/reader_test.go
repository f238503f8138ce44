package wire_test

import (
	"bufio"
	"bytes"
	"testing"

	"temperedlb/internal/comm"
	"temperedlb/internal/comm/wire"
	"temperedlb/internal/termination"
)

// TestReaderAllocatesPerConnection: a connection's reader keeps one frame
// buffer at its high-water size and one decoder, so a frame whose payload
// decodes to nothing allocates nothing. The stream mixes every payload
// size the service sends — nil Data, a token, a width-76 collective and
// gossip lists — rising and falling, and is read the way readLoop reads
// it; every message decoded along the way must survive the frames read
// after it (no payload aliases the buffer). Then 3200 nil-Data frames
// must read at 0 allocations per frame: a buffer that lost capacity per
// frame would fall below the frame size a few hundred frames in and grow
// at every frame after, and a decoder made per frame would be one
// allocation each.
func TestReaderAllocatesPerConnection(t *testing.T) {
	const ranks = 8
	empty := comm.Message{From: 1, To: 2, Kind: 3, Handler: 4, Seq: 5, MsgID: 6, Epoch: 7}
	token := comm.Message{From: 2, To: 1, Kind: 4, Epoch: 7,
		Data: &termination.Token{Count: -3, Color: termination.Black, Wave: 12}}
	coll, err := wire.DecodeMessage(messageBody(func(e *wire.Encoder) {
		e.U16(6)
		e.I64(9)
		e.F64Slice(make([]float64, 76))
	}), ranks)
	if err != nil {
		t.Fatal(err)
	}
	gossip := func(entries int) comm.Message {
		return comm.Message{From: 3, To: 0, Kind: 1, Handler: 2, Seq: 8, Epoch: 7, Data: informMsg(entries)}
	}
	mixed := []comm.Message{empty, token, coll, gossip(70), token, empty, gossip(3), coll, empty, gossip(20)}

	var stream []byte
	for _, m := range mixed {
		stream = wire.AppendMessage(stream, m)
	}
	// AllocsPerRun reports whole allocations per run, rounded down, so a
	// run reads a burst of frames; it also makes one untimed run first.
	const runs, burst = 400, 8
	for i := 0; i < (runs+1)*burst; i++ {
		stream = wire.AppendMessage(stream, empty)
	}

	r := wire.NewFrameReader(bufio.NewReader(bytes.NewReader(stream)))
	read := func() comm.Message {
		ftype, body, err := r.Next()
		if err != nil || ftype != wire.FrameMessage {
			t.Fatalf("frame type %d, err %v", ftype, err)
		}
		m, err := r.Message(body, ranks)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	got := make([]comm.Message, len(mixed))
	for i := range mixed {
		got[i] = read()
	}
	for i, m := range got {
		if want, have := wire.AppendMessage(nil, mixed[i]), wire.AppendMessage(nil, m); !bytes.Equal(have, want) {
			t.Errorf("frame %d (%T) changed after later frames were read:\nhave %x\nwant %x", i, m.Data, have, want)
		}
	}

	allocs := testing.AllocsPerRun(runs, func() {
		for range burst {
			if m := read(); m != empty {
				t.Fatalf("read %+v, want %+v", m, empty)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("a nil-Data frame allocates %.2f times after warm-up, want 0", allocs/burst)
	}
}
