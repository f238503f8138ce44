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
	wire.RegisterPayload(32,
		func(e *wire.Encoder, v core.InformMsg) {
			e.I64(int64(v.Round))
			e.Rows(len(v.Entries), v.Entries == nil, func(lo, hi int) {
				for _, en := range v.Entries[lo:hi] {
					e.I32(int32(en.Rank))
					e.F64(en.Load)
				}
			})
		},
		func(d *wire.Decoder) core.InformMsg {
			m := core.InformMsg{Round: int(d.I64())}
			if n, isNil := d.Rows(12); !isNil {
				m.Entries = make([]core.RankLoad, n)
				for i := range m.Entries {
					m.Entries[i].Rank = core.Rank(d.I32())
					m.Entries[i].Load = d.F64()
				}
			}
			return m
		})
	wire.RegisterPayload(33,
		func(e *wire.Encoder, v xferMsg) {
			e.I64(int64(v.Obj))
			e.F64(v.Load)
		},
		func(d *wire.Decoder) xferMsg {
			return xferMsg{Obj: amt.ObjectID(d.I64()), Load: d.F64()}
		})
}
