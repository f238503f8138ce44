package temperedlb

import "temperedlb/internal/comm/wire"

// WireEncoder and WireDecoder alias the wire codec's encoder and
// decoder so applications can register payload codecs without importing
// internal packages. Field order is the wire format: encoder and
// decoder must move the same fields in the same order (a round trip that
// must re-encode byte-identically checks it; see
// examples/pic2d/codec_test.go).
type (
	WireEncoder = wire.Encoder
	WireDecoder = wire.Decoder

	// WirePayloadID identifies a registered payload codec. The id space
	// is banded: the runtime owns 1–31, balancer layers 32–63, and
	// applications must register at 64 or above.
	WirePayloadID = wire.PayloadID
)

// RegisterWirePayload registers an application payload codec, making
// values of type T sendable across the socket transports (Unix, TCP).
// Applications must use ids ≥ 64; the in-memory transport needs no
// codec, but registering one keeps the program transport-agnostic.
// Registration typically happens in an init function, mirroring
// encoding/gob's Register. Panics on a duplicate id, like the
// underlying registry.
//
// The codec is also how the runtime weighs T: comm_bytes_total and
// amt_migration_bytes_total are the bytes the registered encoder
// writes, on every transport, and a value whose type has no codec
// counts zero. Encode a slice of fixed-width elements with
// WireEncoder.Rows (WireDecoder.Rows reads it back) and sizing it is
// arithmetic instead of a walk.
func RegisterWirePayload[T any](id WirePayloadID, enc func(*WireEncoder, T), dec func(*WireDecoder) T) {
	wire.RegisterPayload(id, enc, dec)
}
