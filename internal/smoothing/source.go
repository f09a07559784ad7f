package smoothing

import (
	"fmt"
	"slices"

	"repro/internal/profile"
	"repro/internal/xrand"
)

// Streamed smoothings. Shuffle, PerturbSizes and RandomRotation build a
// whole new profile per trial, but a measurement reads only the boxes its
// execution consumes — often a few percent of a worst-case profile. The
// sources below yield the same box sequence (cycling, like
// profile.NewSliceSource over the materialised result) while generating
// only what is asked for, and each can be Reset for a new trial without
// allocating, so one per engine worker serves every trial it runs. The
// per-profile tables they read (CodedProfile, RotationTable) are built
// once and are never written afterwards, so workers share them.

// CodedProfile is a profile's boxes as one-byte codes into a table of its
// distinct sizes — the form a shuffle permutes: M_{a,b}(n) has only
// log_b n + 1 distinct sizes, so a code array is an eighth of the box
// array.
type CodedProfile struct {
	sizes []int64 // sizes[c] is the box size of code c
	codes []uint8 // codes[i] is box i's code
}

// NewCodedProfile encodes p. It fails on an empty profile and on one with
// more than 256 distinct box sizes.
func NewCodedProfile(p *profile.SquareProfile) (*CodedProfile, error) {
	if p.Len() == 0 {
		return nil, fmt.Errorf("smoothing: cannot stream an empty profile")
	}
	c := &CodedProfile{codes: make([]uint8, p.Len())}
	index := make(map[int64]uint8)
	for i := range c.codes {
		b := p.Box(i)
		code, ok := index[b]
		if !ok {
			if len(c.sizes) == 256 {
				return nil, fmt.Errorf("smoothing: profile has more than 256 distinct box sizes; a coded shuffle needs at most 256")
			}
			code = uint8(len(c.sizes))
			index[b] = code
			c.sizes = append(c.sizes, b)
		}
		c.codes[i] = code
	}
	return c, nil
}

// ShuffledSource cycles over a uniformly random permutation of a coded
// profile's boxes: the boxes Shuffle returns for the same rng state. Its
// zero value is ready for Reset.
type ShuffledSource struct {
	sizes []int64
	codes []uint8 // the permuted codes, reused across trials
	pos   int
}

// Reset draws a fresh permutation of c's boxes from rng — Shuffle's
// Fisher–Yates draws, advancing rng as Shuffle does — and rewinds the
// source. Once the source has held a profile of c's length it allocates
// nothing.
func (s *ShuffledSource) Reset(c *CodedProfile, rng *xrand.Source) {
	s.sizes = c.sizes
	s.codes = append(s.codes[:0], c.codes...)
	xrand.Shuffle(rng, s.codes)
	s.pos = 0
}

// Next returns the next box of the permutation, cycling at the end.
func (s *ShuffledSource) Next() int64 {
	b := s.sizes[s.codes[s.pos]]
	s.pos++
	if s.pos == len(s.codes) {
		s.pos = 0
	}
	return b
}

// PerturbedSource cycles over a profile's boxes, each multiplied by an
// independent uniform factor in {1, ..., t}: the boxes PerturbSizes returns
// for the same rng state. Box i's factor is drawn when box i is first
// requested, in PerturbSizes' draw order; on wrapping around, the source
// restores its generator's starting state and replays the same factors.
// Its zero value is ready for Reset.
type PerturbedSource struct {
	p     *profile.SquareProfile
	t     int64
	rng   xrand.Source // the draws so far
	start xrand.Source // the state before box 0's draw
	pos   int
}

// Reset starts a new perturbation of p with factors in {1, ..., t} drawn
// from a copy of rng's state; rng itself is not advanced.
func (s *PerturbedSource) Reset(p *profile.SquareProfile, rng *xrand.Source, t int64) error {
	if t < 1 {
		return fmt.Errorf("smoothing: perturbation bound t = %d < 1", t)
	}
	if p.Len() == 0 {
		return fmt.Errorf("smoothing: cannot stream an empty profile")
	}
	*s = PerturbedSource{p: p, t: t, rng: *rng, start: *rng}
	return nil
}

// Next returns the next perturbed box, cycling at the end.
func (s *PerturbedSource) Next() int64 {
	if s.pos == s.p.Len() {
		s.pos = 0
		s.rng = s.start
	}
	b := s.p.Box(s.pos) * (1 + s.rng.Int63n(s.t))
	s.pos++
	return b
}

// RotationTable holds a profile's box end times, so a random start time
// finds its enclosing box by binary search instead of a scan.
type RotationTable struct {
	p    *profile.SquareProfile
	ends []int64 // ends[i] = Box(0) + ... + Box(i)
}

// NewRotationTable builds p's end-time table. p must be non-empty.
func NewRotationTable(p *profile.SquareProfile) (*RotationTable, error) {
	if p.Len() == 0 {
		return nil, fmt.Errorf("smoothing: cannot rotate an empty profile")
	}
	ends := make([]int64, p.Len())
	var acc int64
	for i := range ends {
		acc += p.Box(i)
		ends[i] = acc
	}
	return &RotationTable{p: p, ends: ends}, nil
}

// start draws RandomRotation's start box: the box enclosing a uniformly
// random time in [0, Duration()).
func (r *RotationTable) start(rng *xrand.Source) int {
	target := rng.Int63n(r.ends[len(r.ends)-1])
	// The first box ending after target; ends is strictly increasing.
	i, _ := slices.BinarySearch(r.ends, target+1)
	return i
}

// RotatedSource cycles over a profile's boxes from a random start box: the
// boxes RandomRotation returns for the same rng state, read in place from
// the shared profile. Its zero value is ready for Reset.
type RotatedSource struct {
	p   *profile.SquareProfile
	pos int
}

// Reset draws a start box from rng (advancing it as RandomRotation does)
// and positions the source there.
func (s *RotatedSource) Reset(r *RotationTable, rng *xrand.Source) {
	s.p = r.p
	s.pos = r.start(rng)
}

// Next returns the next box, cycling at the end.
func (s *RotatedSource) Next() int64 {
	b := s.p.Box(s.pos)
	s.pos++
	if s.pos == s.p.Len() {
		s.pos = 0
	}
	return b
}
