package wire

import (
	"bufio"
	"bytes"
	"testing"

	"temperedlb/internal/comm"
)

// FuzzDecodeMessage asserts the message-body decoder errors — never
// panics, never over-allocates — on arbitrary input. Seeded with valid
// encodings so the fuzzer starts from the interesting part of the
// input space.
func FuzzDecodeMessage(f *testing.F) {
	registerTestPayloads()
	f.Add([]byte(nil))
	f.Add(frameBodyRaw(AppendMessage(nil, comm.Message{From: 0, To: 1, Kind: 1, Seq: 1, MsgID: 1})))
	f.Add(frameBodyRaw(AppendMessage(nil, comm.Message{From: 1, To: 0, Kind: 2, Seq: 3, MsgID: 4,
		Data: testPayload{A: 5, B: []float64{1, 2, 3}, Flag: true, Inner: innerPayload{X: 9}}})))
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Fuzz(func(t *testing.T, body []byte) {
		m, err := DecodeMessage(body, 8)
		if err == nil {
			// A successful decode must re-encode to the same body.
			again := frameBodyRaw(AppendMessage(nil, m))
			if !bytes.Equal(again, body) {
				t.Fatalf("decode/encode not a fixpoint:\n in %x\nout %x", body, again)
			}
		}
	})
}

// FuzzReadFrame asserts the stream framer errors — never panics — on
// truncated, oversized and garbage byte streams.
func FuzzReadFrame(f *testing.F) {
	f.Add(AppendMessage(nil, comm.Message{From: 0, To: 1, Kind: 1, Seq: 1, MsgID: 1}))
	f.Add(appendBye(nil))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})             // length 2^32-1: over the limit
	f.Add([]byte{0x00, 0x00, 0x00, 0x00})             // length 0: under the header
	f.Add([]byte{0x00, 0x00, 0x00, 0x02, 0x63, 0x02}) // wrong version
	f.Fuzz(func(t *testing.T, stream []byte) {
		r := frameReader{br: bufio.NewReader(bytes.NewReader(stream))}
		for {
			_, _, err := r.next()
			if err != nil {
				return
			}
		}
	})
}

func frameBodyRaw(frame []byte) []byte { return frame[4+frameHeaderLen:] }
