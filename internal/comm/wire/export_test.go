package wire

// FramePrefixLen is what precedes a frame's body: the length word and
// the version+type header.
const FramePrefixLen = 4 + frameHeaderLen

// RegisteredIDs lists every payload id with a codec, in no order.
func RegisteredIDs() []PayloadID {
	regMu.RLock()
	defer regMu.RUnlock()
	ids := make([]PayloadID, 0, len(regByID))
	for id := range regByID {
		ids = append(ids, id)
	}
	return ids
}
