// Package smoothing implements the paper's four profile smoothings.
//
// The paper's main positive result (Theorem 1/3): drawing every box size
// i.i.d. from an arbitrary distribution Σ makes every (a,b,1)-regular
// algorithm with a > b cache-adaptive in expectation. Its negative results:
// three natural-looking weaker smoothings of the canonical worst-case
// profile M_{a,b}(n) — per-box size perturbation, random start time, and
// box-order perturbation — fail to close the logarithmic gap.
//
// The operators here produce profiles/sources; measurement lives in
// internal/adaptivity.
package smoothing

import (
	"fmt"

	"repro/internal/profile"
	"repro/internal/xrand"
)

// ---------------------------------------------------------------------------
// S1 — i.i.d. box sizes (the smoothing that works). The adaptivity
// package draws i.i.d. boxes straight from an xrand.Dist (GapSampleExec);
// Shuffle below is the literal-permutation reading of the same smoothing.

// Shuffle returns a uniformly random permutation of p's boxes — the literal
// "random shuffle on when significant events occur" reading. Sampling
// i.i.d. from the profile's empirical box-size distribution (see
// xrand.WorstCaseBoxDist) is the scalable equivalent.
func Shuffle(p *profile.SquareProfile, rng *xrand.Source) *profile.SquareProfile {
	boxes := p.Boxes()
	xrand.Shuffle(rng, boxes)
	return profile.MustNew(boxes)
}

// ---------------------------------------------------------------------------
// S2 — box-size perturbation (fails to smooth).
//
// The paper: draw X_i i.i.d. from a distribution P over [0,t] with
// E[X] = Θ(t) and t <= √n, and replace each box |□_i| by |□_i|·X_i. We use
// the discrete uniform on {1, ..., t} (mean (t+1)/2 = Θ(t); the zero value
// is clamped away since a zero-size box is degenerate in a square profile).

// PerturbSizes multiplies each box size by an independent uniform factor in
// {1, ..., t}.
func PerturbSizes(p *profile.SquareProfile, rng *xrand.Source, t int64) (*profile.SquareProfile, error) {
	if t < 1 {
		return nil, fmt.Errorf("smoothing: perturbation bound t = %d < 1", t)
	}
	boxes := p.Boxes()
	for i := range boxes {
		boxes[i] *= 1 + rng.Int63n(t)
	}
	return profile.New(boxes)
}

// ---------------------------------------------------------------------------
// S3 — start-time perturbation (fails to smooth).

// Rotate cyclically rotates p's boxes so the profile starts at box index
// start (the algorithm begins at that box's start). Index granularity is
// box boundaries — exactly the granularity at which the paper's prefix A /
// suffix B argument operates.
func Rotate(p *profile.SquareProfile, start int) (*profile.SquareProfile, error) {
	n := p.Len()
	if n == 0 {
		return nil, fmt.Errorf("smoothing: cannot rotate an empty profile")
	}
	if start < 0 || start >= n {
		return nil, fmt.Errorf("smoothing: rotation start %d out of [0,%d)", start, n)
	}
	boxes := p.Boxes()
	rotated := make([]int64, 0, n)
	rotated = append(rotated, boxes[start:]...)
	rotated = append(rotated, boxes[:start]...)
	return profile.New(rotated)
}

// RandomRotation rotates p to a start box chosen with probability
// proportional to box duration — i.e. a uniformly random start *time*,
// rounded down to the enclosing box boundary.
func RandomRotation(p *profile.SquareProfile, rng *xrand.Source) (*profile.SquareProfile, error) {
	if p.Len() == 0 {
		return nil, fmt.Errorf("smoothing: cannot rotate an empty profile")
	}
	target := rng.Int63n(p.Duration())
	var acc int64
	for i := 0; i < p.Len(); i++ {
		acc += p.Box(i)
		if target < acc {
			return Rotate(p, i)
		}
	}
	return Rotate(p, p.Len()-1) // unreachable; duration accounting covers all
}

// ---------------------------------------------------------------------------
// S4 — box-order perturbation (fails to smooth).

// OrderPerturbed builds the recursive worst-case profile with the level-n
// box placed after a uniformly random one of the a recursive instances
// (independently at every node), instead of always after the last:
//
//	M'(n) = M'_1(n/b) ... M'_j(n/b)  [box n]  M'_{j+1}(n/b) ... M'_a(n/b)
//
// with j uniform on {1, ..., a}. The paper proves the result remains a
// worst-case profile with probability one: the algorithm must still grind
// through every box preceding the big one, and at least one full recursive
// instance always precedes it.
func OrderPerturbed(a, b, n int64, rng *xrand.Source) (*profile.SquareProfile, error) {
	count, err := profile.WorstCaseBoxCount(a, b, n)
	if err != nil {
		return nil, err
	}
	const maxBoxes = int64(1) << 31
	if count > maxBoxes {
		return nil, fmt.Errorf("smoothing: order-perturbed M_{%d,%d}(%d) would have %d boxes", a, b, n, count)
	}
	boxes := make([]int64, 0, count)
	boxes = appendOrderPerturbed(boxes, a, b, n, rng)
	return profile.New(boxes)
}

func appendOrderPerturbed(dst []int64, a, b, n int64, rng *xrand.Source) []int64 {
	if n <= 1 {
		return append(dst, 1)
	}
	j := 1 + rng.Int63n(a) // big box goes after instance j
	for i := int64(1); i <= a; i++ {
		dst = appendOrderPerturbed(dst, a, b, n/b, rng)
		if i == j {
			dst = append(dst, n)
		}
	}
	return dst
}
