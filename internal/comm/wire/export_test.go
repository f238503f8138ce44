package wire

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
