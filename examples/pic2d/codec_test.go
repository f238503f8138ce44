package main

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"temperedlb"
	"temperedlb/internal/comm/wire"
)

// TestCodecsRoundTrip holds the example's two application codecs to the
// wire contract: each value encodes under its registered id (64 for the
// particle exchange, 65 for the migrating color), decodes to an equal
// value with no bytes left over, and re-encodes to the same bytes. Field
// order is the wire format, so a decoder that reads two fields in
// another order than its encoder wrote them fails the re-encode.
func TestCodecsRoundTrip(t *testing.T) {
	some := []particle{{1, 2, 3, 4}, {-0.5, 7.25, 1e-9, -1e9}, {0, 0.1, 0.2, 0.3}}
	for _, tc := range []struct {
		name string
		id   temperedlb.WirePayloadID
		v    any
	}{
		{"nil particles", 64, []particle(nil)},
		{"no particles", 64, []particle{}},
		{"particles", 64, some},
		{"color without particles", 65, &color{Index: 3}},
		{"color with no particles", 65, &color{Index: 4, Particles: []particle{}}},
		{"color with particles", 65, &color{Index: 5, Particles: some}},
	} {
		var enc temperedlb.WireEncoder
		enc.Any(tc.v)
		first := bytes.Clone(enc.Bytes())
		if id := temperedlb.WirePayloadID(binary.BigEndian.Uint16(first)); id != tc.id {
			t.Errorf("%s: encoded under payload id %d, want %d", tc.name, id, tc.id)
		}

		dec := wire.NewDecoder(first)
		got := dec.Any()
		if err := dec.Err(); err != nil {
			t.Errorf("%s: decode: %v", tc.name, err)
			continue
		}
		if dec.Remaining() != 0 {
			t.Errorf("%s: %d bytes left after decoding", tc.name, dec.Remaining())
		}
		if !reflect.DeepEqual(got, tc.v) {
			t.Errorf("%s: decoded %#v, want %#v", tc.name, got, tc.v)
		}

		enc.Reset()
		enc.Any(got)
		if !bytes.Equal(enc.Bytes(), first) {
			t.Errorf("%s: re-encoding differs:\nfirst  %x\nsecond %x", tc.name, first, enc.Bytes())
		}
	}
}
