// Negative cases: symmetric collective use, data-dependent guards, and
// the sanctioned laundering idiom (agree on the rank-local bit via a
// collective, then branch on the agreed value).
package neg

type Context struct{}

func (*Context) Rank() int                           { return 0 }
func (*Context) Stream() *int                        { return nil }
func (*Context) Watched() bool                       { return false }
func (*Context) Barrier()                            {}
func (*Context) AllReduce(v float64, op int) float64 { return v }
func (*Context) AllGather(v float64) []float64       { return nil }

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// Unconditional collectives are always symmetric.
func symmetric(rc *Context) {
	rc.Barrier()
	rc.AllGather(1)
}

// Rank-local branches are fine as long as no collective hides inside.
func leaderOnlyIO(rc *Context) {
	if rc.Rank() == 0 {
		println("leader")
	}
	rc.Barrier()
}

// A guard on replicated data is not rank-local.
func dataGuard(rc *Context, n int) {
	if n > 0 {
		rc.Barrier()
	}
}

// The laundering idiom: the AllReduce assignment makes streaming an
// agreed value, so branching on it is symmetric by construction.
func laundered(rc *Context) {
	streaming := rc.Stream() != nil
	streaming = rc.AllReduce(b2f(streaming), 1) > 0
	if streaming {
		rc.AllGather(1)
	}
}

// The agreed-fact idiom: Watched is the same on every rank of the job,
// so it may gate a collective; the rank-local stream gates only the
// publishing.
func agreedFact(rc *Context) {
	if rc.Watched() {
		rc.AllReduce(1, 0)
	}
	watched := rc.Watched()
	if watched {
		rc.AllReduce(2, 0)
		if rc.Stream() != nil {
			println("publish")
		}
	}
}

// Reassignment from replicated data clears taint (last-write-wins).
func retainted(rc *Context, n int) {
	r := rc.Rank()
	_ = r
	r = n
	if r > 0 {
		rc.Barrier()
	}
}
