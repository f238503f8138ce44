package wire

import (
	"bufio"

	"temperedlb/internal/comm"
)

// FramePrefixLen is what precedes a frame's body: the length word and
// the version+type header.
const FramePrefixLen = 4 + frameHeaderLen

// RegisteredIDs lists every payload id with a codec, in no order.
func RegisteredIDs() []PayloadID {
	byID := snapshot().byID
	ids := make([]PayloadID, 0, len(byID))
	for id := range byID {
		ids = append(ids, id)
	}
	return ids
}

// FrameReader is the read side readLoop keeps per connection; Next and
// Message are the two steps it takes per frame.
type FrameReader = frameReader

// FrameMessage is the frame type of a message frame.
const FrameMessage = frameMessage

func NewFrameReader(br *bufio.Reader) *FrameReader { return &frameReader{br: br} }

func (r *frameReader) Next() (ftype byte, body []byte, err error) { return r.next() }

func (r *frameReader) Message(body []byte, totalRanks int) (comm.Message, error) {
	return r.message(body, totalRanks)
}
