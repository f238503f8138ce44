package particle

import (
	"fmt"
	"math"
	"math/rand"
)

// Particle is one macro-particle in the unit square.
type Particle struct {
	X, Y   float64
	VX, VY float64
}

// FocusingField attracts particles toward a slowly drifting focal point
// — the stand-in for the B-Dot problem's magnetic compression. The
// attraction is linear in the offset (a harmonic trap), so a cloud
// relaxes toward a Gaussian around the focus whose width is set by the
// velocity spread; the drift moves the hot spot across rank boundaries
// over time.
type FocusingField struct {
	// Strength is the trap stiffness.
	Strength float64
	// CX0, CY0 and DriftX, DriftY define the focus trajectory
	// (CX0+DriftX·t, CY0+DriftY·t).
	CX0, CY0       float64
	DriftX, DriftY float64
}

// Accel returns the acceleration at a position and time.
func (f FocusingField) Accel(x, y, t float64) (ax, ay float64) {
	cx := f.CX0 + f.DriftX*t
	cy := f.CY0 + f.DriftY*t
	return -f.Strength * (x - cx), -f.Strength * (y - cy)
}

// Focus returns the focal point at time t.
func (f FocusingField) Focus(t float64) (x, y float64) {
	return f.CX0 + f.DriftX*t, f.CY0 + f.DriftY*t
}

// System is a particle population with reflecting walls on [0,1]².
type System struct {
	Particles []Particle
	rng       *rand.Rand
	time      float64
}

// NewSystem creates an empty system with a seeded generator.
func NewSystem(seed int64) *System {
	return &System{rng: rand.New(rand.NewSource(seed))}
}

// Len returns the particle count.
func (s *System) Len() int { return len(s.Particles) }

// Time returns the accumulated simulation time.
func (s *System) Time() float64 { return s.time }

// InjectGaussian adds n particles in a Gaussian spot of width sigma
// around (cx, cy), with thermal velocity spread vth. Positions are
// clamped into the domain.
func (s *System) InjectGaussian(n int, cx, cy, sigma, vth float64) {
	for i := 0; i < n; i++ {
		s.Particles = append(s.Particles, Particle{
			X:  clamp01(cx + s.rng.NormFloat64()*sigma),
			Y:  clamp01(cy + s.rng.NormFloat64()*sigma),
			VX: s.rng.NormFloat64() * vth,
			VY: s.rng.NormFloat64() * vth,
		})
	}
}

// InjectDisk adds n particles uniformly over a disk of radius r around
// (cx, cy) — a plasma filament cross-section. Positions are clamped into
// the domain.
func (s *System) InjectDisk(n int, cx, cy, r, vth float64) {
	for i := 0; i < n; i++ {
		// Uniform over the disk via sqrt-radius sampling.
		rr := r * math.Sqrt(s.rng.Float64())
		th := 2 * math.Pi * s.rng.Float64()
		s.Particles = append(s.Particles, Particle{
			X:  clamp01(cx + rr*math.Cos(th)),
			Y:  clamp01(cy + rr*math.Sin(th)),
			VX: s.rng.NormFloat64() * vth,
			VY: s.rng.NormFloat64() * vth,
		})
	}
}

// InjectUniform adds n particles spread uniformly over the domain — the
// background plasma that keeps every rank busy.
func (s *System) InjectUniform(n int, vth float64) {
	for i := 0; i < n; i++ {
		s.Particles = append(s.Particles, Particle{
			X:  s.rng.Float64(),
			Y:  s.rng.Float64(),
			VX: s.rng.NormFloat64() * vth,
			VY: s.rng.NormFloat64() * vth,
		})
	}
}

// Step advances all particles by dt under the field using a symplectic
// (kick-drift) update, reflecting at the walls. Particle count is
// conserved.
func (s *System) Step(dt float64, f FocusingField) {
	if dt <= 0 {
		panic(fmt.Sprintf("particle: Step with dt=%g", dt))
	}
	t := s.time
	for i := range s.Particles {
		p := &s.Particles[i]
		ax, ay := f.Accel(p.X, p.Y, t)
		p.VX += ax * dt
		p.VY += ay * dt
		p.X += p.VX * dt
		p.Y += p.VY * dt
		reflect(&p.X, &p.VX)
		reflect(&p.Y, &p.VY)
	}
	s.time += dt
}

// reflect bounces a coordinate back into [0,1], flipping its velocity.
func reflect(x, v *float64) {
	for *x < 0 || *x > 1 {
		if *x < 0 {
			*x = -*x
			*v = -*v
		}
		if *x > 1 {
			*x = 2 - *x
			*v = -*v
		}
	}
}

func clamp01(x float64) float64 {
	return math.Min(1, math.Max(0, x))
}

// CountPer bins particles by an arbitrary spatial classifier with
// numBins classes; the PIC driver uses it with the mesh coloring to get
// per-color particle counts.
func (s *System) CountPer(numBins int, binOf func(x, y float64) int) []int {
	counts := make([]int, numBins)
	for i := range s.Particles {
		p := &s.Particles[i]
		b := binOf(p.X, p.Y)
		if b < 0 || b >= numBins {
			panic(fmt.Sprintf("particle: classifier returned bin %d of %d for (%g,%g)", b, numBins, p.X, p.Y))
		}
		counts[b]++
	}
	return counts
}

// Spread returns the standard deviation of particle positions around
// their centroid — the cloud width observable used to calibrate the
// imbalance trajectory.
func (s *System) Spread() float64 {
	n := float64(len(s.Particles))
	if n == 0 {
		return 0
	}
	mx, my := 0.0, 0.0
	for i := range s.Particles {
		mx += s.Particles[i].X
		my += s.Particles[i].Y
	}
	mx /= n
	my /= n
	ss := 0.0
	for i := range s.Particles {
		dx, dy := s.Particles[i].X-mx, s.Particles[i].Y-my
		ss += dx*dx + dy*dy
	}
	return math.Sqrt(ss / (2 * n))
}
