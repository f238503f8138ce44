package amt

import (
	"temperedlb/internal/comm/wire"
	"temperedlb/internal/core"
	"temperedlb/internal/termination"
)

// Wire codecs for every payload type the runtime itself puts on the
// transport. IDs 1–15 are envelopes and control payloads (1, the user
// envelope, is retired since wire v2: the epoch tag rides the frame
// header and user data travels bare; v3 dropped the migration
// envelope's size field, which no receiver read; since v4 an all-gather's
// up message, id 6, carries its subtree's range); 16–31 stay reserved
// for future runtime types. Field order here IS the wire protocol —
// reordering or widening a field is a wire.Version bump.
//
// User data and the nested Data/State fields round-trip through
// Encoder.Any, so an application's payloads must be registered too (ids
// 64+); the balancer layer registers its own at 32–63 (see
// internal/lb/tempered).
func init() {
	wire.RegisterPayload(2,
		func(e *wire.Encoder, v objEnvelope) {
			e.I64(int64(v.Obj))
			e.I32(int32(v.Origin))
			e.Any(v.Data)
		},
		func(d *wire.Decoder) objEnvelope {
			return objEnvelope{
				Obj:    ObjectID(d.I64()),
				Origin: core.Rank(d.I32()),
				Data:   d.Any(),
			}
		})
	wire.RegisterPayload(3,
		func(e *wire.Encoder, v migrateEnvelope) {
			e.I64(int64(v.Obj))
			e.Any(v.State)
		},
		func(d *wire.Decoder) migrateEnvelope {
			return migrateEnvelope{
				Obj:   ObjectID(d.I64()),
				State: d.Any(),
			}
		})
	wire.RegisterPayload(4,
		func(e *wire.Encoder, v locEnvelope) {
			e.I64(int64(v.Obj))
			e.I32(int32(v.Loc))
		},
		func(d *wire.Decoder) locEnvelope {
			return locEnvelope{
				Obj: ObjectID(d.I64()),
				Loc: core.Rank(d.I32()),
			}
		})
	// A token hop carries a pointer to the sender's outgoing token
	// (termination.Detector.TryHandOff); the bytes are the value's.
	wire.RegisterPayload(5,
		func(e *wire.Encoder, v *termination.Token) {
			e.I64(int64(v.Count))
			e.U8(uint8(v.Color))
			e.I64(int64(v.Wave))
		},
		func(d *wire.Decoder) *termination.Token {
			return &termination.Token{
				Count: int(d.I64()),
				Color: termination.Color(d.U8()),
				Wave:  int(d.I64()),
			}
		})
	wire.RegisterPayload(6,
		func(e *wire.Encoder, v *collMsg) {
			e.I64(v.Seq)
			e.F64Slice(v.Values)
		},
		func(d *wire.Decoder) *collMsg {
			return &collMsg{Seq: d.I64(), Values: d.F64Slice()}
		})

	// Scalar payloads the runtime sends bare: acks carry int64 ids; core.Rank rides object fetches; int and
	// float64 are common application payloads (lbplay's task loads).
	wire.RegisterPayload(7,
		func(e *wire.Encoder, v int64) { e.I64(v) },
		func(d *wire.Decoder) int64 { return d.I64() })
	wire.RegisterPayload(8,
		func(e *wire.Encoder, v int) { e.I64(int64(v)) },
		func(d *wire.Decoder) int { return int(d.I64()) })
	wire.RegisterPayload(9,
		func(e *wire.Encoder, v float64) { e.F64(v) },
		func(d *wire.Decoder) float64 { return d.F64() })
	wire.RegisterPayload(10,
		func(e *wire.Encoder, v core.Rank) { e.I32(int32(v)) },
		func(d *wire.Decoder) core.Rank { return core.Rank(d.I32()) })
}
