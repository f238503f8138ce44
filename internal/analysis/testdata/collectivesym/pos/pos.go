// Positive cases: collective calls reachable only under rank-local
// conditions. Context stubs the runtime context — the analyzer matches
// on the receiver's named type.
package pos

type Context struct{}

func (*Context) Rank() int                           { return 0 }
func (*Context) Stream() *int                        { return nil }
func (*Context) Watched() bool                       { return false }
func (*Context) Barrier()                            {}
func (*Context) AllReduce(v float64, op int) float64 { return v }
func (*Context) AllGather(v float64) []float64       { return nil }

func run(f func()) { f() }

func directGuard(rc *Context) {
	if rc.Rank() == 0 {
		rc.Barrier() // want "collective Barrier is guarded by rank-local condition rc.Rank() == 0"
	}
}

func throughVariable(rc *Context) {
	leader := rc.Rank() == 0
	if leader {
		rc.AllGather(1) // want "collective AllGather is guarded by rank-local condition leader"
	}
}

func attachmentGuard(rc *Context) {
	if rc.Stream() != nil {
		rc.AllGather(2) // want "guarded by rank-local condition"
	}
}

// Watched's first call on a socket transport takes the agreeing reduce,
// so asking only on some ranks is the same deadlock.
func askOnLeader(rc *Context) {
	if rc.Rank() == 0 {
		_ = rc.Watched() // want "collective Watched is guarded by rank-local condition"
	}
}

// helper performs a collective; calling it from a tainted branch is the
// same deadlock one call level down.
func helper(rc *Context) { rc.Barrier() }

func throughHelper(rc *Context) {
	if rc.Rank() > 0 {
		helper(rc) // want "call to helper, which performs collective Barrier"
	}
}

// myRank's summary marks its result rank-local.
func myRank(rc *Context) int { return rc.Rank() }

func throughSummary(rc *Context) {
	if myRank(rc) == 0 {
		rc.Barrier() // want "guarded by rank-local condition"
	}
}

// Function literals inherit the taint state at their definition point:
// an Epoch-style body under a tainted branch still deadlocks.
func insideClosure(rc *Context) {
	if rc.Rank() == 0 {
		run(func() {
			rc.Barrier() // want "collective Barrier is guarded by rank-local condition"
		})
	}
}
