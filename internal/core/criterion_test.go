package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func TestCriterionOriginal(t *testing.T) {
	// Accept only if recipient + task < ave.
	if !CriterionOriginal.Evaluate(1, 2, 4, 100) {
		t.Error("1+2 < 4 should accept")
	}
	if CriterionOriginal.Evaluate(2, 2, 4, 100) {
		t.Error("2+2 == 4 should reject")
	}
	if CriterionOriginal.Evaluate(3, 2, 4, 100) {
		t.Error("3+2 > 4 should reject")
	}
}

func TestCriterionRelaxed(t *testing.T) {
	// Accept only if task < self - recipient, i.e. recipient + task < self.
	if !CriterionRelaxed.Evaluate(1, 2, 0, 4) {
		t.Error("2 < 4-1 should accept")
	}
	if CriterionRelaxed.Evaluate(2, 2, 0, 4) {
		t.Error("2 == 4-2 should reject")
	}
	if CriterionRelaxed.Evaluate(3, 2, 0, 4) {
		t.Error("2 > 4-3 should reject")
	}
}

func TestRelaxedStrictlyLooserThanOriginal(t *testing.T) {
	// For an overloaded sender (self > ave), any transfer the original
	// criterion accepts is also accepted by the relaxed one:
	// l_x + load < l_ave <= l^p.
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 2000; trial++ {
		ave := rng.Float64() * 10
		self := ave + rng.Float64()*20 // overloaded
		lx := rng.Float64() * 15
		load := rng.Float64() * 15
		if CriterionOriginal.Evaluate(lx, load, ave, self) &&
			!CriterionRelaxed.Evaluate(lx, load, ave, self) {
			t.Fatalf("relaxed rejected what original accepted: lx=%g load=%g ave=%g self=%g",
				lx, load, ave, self)
		}
	}
}

// TestLemma1 verifies the mechanics of Lemma 1: if the relaxed criterion
// accepts a transfer (LOAD(o) < l_i − l_x with true recipient load l_x),
// then max(l_i − l, l_x + l) < l_i — neither endpoint of the transfer
// ends above the sender's prior load, so the global maximum cannot
// increase through this pair and F monotonically decreases over ranks at
// the former maximum.
func TestLemma1(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 5000; trial++ {
		li := 1 + rng.Float64()*100 // sender load
		lx := rng.Float64() * li    // recipient load below sender
		l := rng.Float64() * li     // candidate task load
		if !(l < li-lx) || l <= 0 { // criterion must hold with positive load
			continue
		}
		after := math.Max(li-l, lx+l)
		if after >= li {
			t.Fatalf("Lemma 1 violated: li=%g lx=%g l=%g after=%g", li, lx, l, after)
		}
	}
}

// TestLemma1FullDistribution checks the distribution-level statement: a
// single relaxed-criterion transfer (with accurate knowledge) never
// increases the objective F(D) = l_max/l_ave − h; it strictly decreases
// F when the sender was the unique maximum.
func TestLemma1FullDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 2000; trial++ {
		n := 2 + rng.Intn(10)
		loads := make([]float64, n)
		for i := range loads {
			loads[i] = rng.Float64() * 10
		}
		i := rng.Intn(n)
		x := rng.Intn(n)
		if x == i {
			continue
		}
		l := rng.Float64() * 10
		if !(l > 0 && l < loads[i]-loads[x]) {
			continue // criterion rejects
		}
		before := Objective(loads, 1)
		uniqueMax := true
		for j, v := range loads {
			if j != i && v >= loads[i] {
				uniqueMax = false
			}
		}
		loads[i] -= l
		loads[x] += l
		after := Objective(loads, 1)
		if after > before+1e-12 {
			t.Fatalf("F increased after accepted transfer: %g -> %g", before, after)
		}
		if uniqueMax && !(after < before-1e-15) {
			t.Fatalf("F did not strictly decrease from unique max: %g -> %g", before, after)
		}
	}
}

// TestLemma2 checks the converse: transferring a task from the maximum
// rank when the criterion fails (l >= l_i − l_x) never decreases F.
func TestLemma2(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for trial := 0; trial < 2000; trial++ {
		n := 2 + rng.Intn(10)
		loads := make([]float64, n)
		for i := range loads {
			loads[i] = rng.Float64() * 10
		}
		// Make rank 0 the maximum.
		maxIdx := 0
		for j, v := range loads {
			if v > loads[maxIdx] {
				maxIdx = j
			}
		}
		loads[0], loads[maxIdx] = loads[maxIdx], loads[0]
		x := 1 + rng.Intn(n-1)
		// Pick a violating task load: l >= l_0 − l_x, but the task must
		// exist on rank 0, so l <= l_0.
		low := loads[0] - loads[x]
		if low < 0 {
			low = 0
		}
		if low > loads[0] {
			continue
		}
		l := low + rng.Float64()*(loads[0]-low)
		if l <= 0 {
			continue
		}
		before := Objective(loads, 1)
		loads[0] -= l
		loads[x] += l
		after := Objective(loads, 1)
		if after < before-1e-12 {
			t.Fatalf("Lemma 2 violated: F decreased %g -> %g", before, after)
		}
	}
}

func TestObjective(t *testing.T) {
	// loads 6,2,2,2: l_max/l_ave = 6/3 = 2; F = 2 - h.
	if got := Objective([]float64{6, 2, 2, 2}, 1); math.Abs(got-1) > 1e-12 {
		t.Errorf("Objective = %g, want 1", got)
	}
	if got := Objective(nil, 1); got != -1 {
		t.Errorf("Objective(nil) = %g, want -1", got)
	}
	if got := Objective([]float64{0, 0}, 1.5); got != -1.5 {
		t.Errorf("Objective(zeros) = %g, want -1.5", got)
	}
}

func TestCriterionAndKindStrings(t *testing.T) {
	cases := []struct {
		got, want string
	}{
		{CriterionOriginal.String(), "original"},
		{CriterionRelaxed.String(), "relaxed"},
		{CMFOriginal.String(), "original"},
		{CMFModified.String(), "modified"},
		{OrderArbitrary.String(), "arbitrary"},
		{OrderFewestMigrations.String(), "fewest-migrations"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("String() = %q, want %q", c.got, c.want)
		}
	}
	if Criterion(99).String() == "" || CMFKind(99).String() == "" || Ordering(99).String() == "" {
		t.Error("unknown enum values should still render")
	}
}

func TestConfigValidate(t *testing.T) {
	good := Tempered()
	if err := good.Validate(); err != nil {
		t.Errorf("Tempered() invalid: %v", err)
	}
	if err := Grapevine().Validate(); err != nil {
		t.Errorf("Grapevine() invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Fanout = 0 },
		func(c *Config) { c.Rounds = 0 },
		func(c *Config) { c.Threshold = 0 },
		func(c *Config) { c.Trials = 0 },
		func(c *Config) { c.Iterations = 0 },
	}
	for i, mut := range bad {
		c := Tempered()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
	// The forwarded-round mask has a bit per round: 64 fits, 65 does not.
	c := Tempered()
	c.Rounds = MaxRounds
	if err := c.Validate(); err != nil {
		t.Errorf("Rounds = %d: %v", MaxRounds, err)
	}
	c.Rounds = MaxRounds + 1
	if err := c.Validate(); !errors.Is(err, ErrTooManyRounds) {
		t.Errorf("Rounds = %d: got %v, want ErrTooManyRounds", c.Rounds, err)
	}
}
