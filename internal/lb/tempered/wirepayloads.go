package tempered

import (
	"temperedlb/internal/amt"
	"temperedlb/internal/comm/wire"
	"temperedlb/internal/core"
)

// Wire codecs for the distributed balancer's payloads, in the 32–63 id
// band reserved for balancer layers. Field order IS the wire protocol;
// changes are a wire.Version bump.
func init() {
	// A fan-out carries a pointer to the sender's slot for its round
	// (core.InformState.payload); a decoded message is a fresh one in
	// explicit form.
	wire.RegisterPayload(32, encodeInform,
		func(d *wire.Decoder) *core.InformMsg {
			m := decodeInform(d)
			return &m
		})
	wire.RegisterPayload(33,
		func(e *wire.Encoder, v xferMsg) {
			e.I64(int64(v.Obj))
			e.F64(v.Load)
		},
		func(d *wire.Decoder) xferMsg {
			return xferMsg{Obj: amt.ObjectID(d.I64()), Load: d.F64()}
		})
	// The value form writes id 32's body. The balancer never sends it;
	// it is kept for the benchmark's probes (bench/probes.go), which
	// encode core.InformMsg values, and goes when the benchmark is
	// unfrozen (ROADMAP item 4).
	wire.RegisterPayload(34,
		func(e *wire.Encoder, v core.InformMsg) { encodeInform(e, &v) },
		decodeInform)
}

// encodeInform writes a gossip message. A snapshot streams as the
// rank-ordered rows of its explicit list, so both forms have one wire
// form and decode to the list. A snapshot always holds an entry, so nil
// still means a nil list.
func encodeInform(e *wire.Encoder, v *core.InformMsg) {
	e.I64(int64(v.Round))
	e.Rows(v.Len(), v.Len() == 0 && v.Entries == nil, func(lo, hi int) {
		v.Rows(lo, hi, func(en core.RankLoad) {
			e.I32(int32(en.Rank))
			e.F64(en.Load)
		})
	})
}

// decodeInform reads a gossip message in explicit form.
func decodeInform(d *wire.Decoder) core.InformMsg {
	m := core.InformMsg{Round: int(d.I64())}
	if n, isNil := d.Rows(12); !isNil {
		m.Entries = make([]core.RankLoad, n)
		for i := range m.Entries {
			m.Entries[i].Rank = core.Rank(d.I32())
			m.Entries[i].Load = d.F64()
		}
	}
	return m
}
