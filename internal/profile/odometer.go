package profile

import (
	"fmt"
	"math"
)

// OdometerSource streams a Figure-1 worst-case profile in postorder: it
// emits leaf boxes of size leafBox, and after the t-th leaf (1-based) one
// closing box of size closer(j) for each j = 1..v_a(t), where v_a(t) counts
// the trailing zero digits of t in base a. With leafBox = 1 and
// closer(j) = b^j this is the limit profile M_{a,b} (NewWorstCaseSource);
// with the sizes of a concrete recursion's merge scans it streams that
// algorithm's worst-case profile. The finite profile of a height-L
// recursion is exactly the stream's first (a^{L+1}-1)/(a-1) boxes (L+1
// when a = 1), since the level-L closer after leaf a^L is the root box and
// no deeper closer appears before it; Prefix materialises it. Every box of
// the stream is >= 1 by construction.
//
// The closing sizes live in a table built once by the constructor, and the
// leaf count is kept as base-a digits, so Next allocates nothing and
// divides nothing.
type OdometerSource struct {
	a       int64
	leafBox int64
	closers []int64 // closers[j-1] is the closing box of level j
	digits  []int64 // the leaf count in base a, least significant digit first
	next    int     // closers[next:owed] are still owed after the current leaf
	owed    int
}

// NewOdometerSource validates the shape constants and returns the stream.
// closer(j) reports level j's closing box, or ok = false once that size no
// longer fits in int64.
func NewOdometerSource(a, leafBox int64, closer func(level int) (size int64, ok bool)) (*OdometerSource, error) {
	if a < 2 {
		return nil, fmt.Errorf("profile: odometer needs a >= 2 (a = %d never closes level boxes)", a)
	}
	return newOdometer(a, leafBox, closer)
}

// maxLevels bounds the closer table: level j closes after leaf a^j, and
// no power of an integer >= 2 beyond the 62nd fits in int64.
const maxLevels = 62

// newOdometer builds the closer table. It ends at the last level whose
// closer fits in int64 and whose first closing leaf, a^j, does too: no int64
// leaf count reaches a deeper level, so a stream never runs past the
// table. A level whose closing box would overflow is never emitted. With
// a = 1 every leaf closes every level of the table, which is exactly the
// finite profile M_{1,b}(n) = 1, b, ..., n; only WorstCase uses that.
func newOdometer(a, leafBox int64, closer func(level int) (int64, bool)) (*OdometerSource, error) {
	if leafBox < 1 {
		return nil, fmt.Errorf("profile: odometer leaf box size %d < 1", leafBox)
	}
	closers := make([]int64, 0, maxLevels)
	for j, leaves := 1, a; j <= maxLevels; j++ {
		size, ok := closer(j)
		if !ok {
			break
		}
		if size < 1 {
			return nil, fmt.Errorf("profile: odometer closing box of level %d has size %d < 1", j, size)
		}
		closers = append(closers, size)
		if leaves > math.MaxInt64/a {
			break // a^(j+1) overflows: no leaf count reaches level j+1
		}
		leaves *= a
	}
	return &OdometerSource{a: a, leafBox: leafBox, closers: closers, digits: make([]int64, len(closers))}, nil
}

// Next returns the next box of the stream.
//
//lint:hotpath
func (o *OdometerSource) Next() int64 {
	if o.next < o.owed {
		box := o.closers[o.next]
		o.next++
		return box
	}
	// Count the leaf: every carry out of digit j closes level j+1.
	o.next, o.owed = 0, 0
	for o.owed < len(o.digits) {
		o.digits[o.owed]++
		if o.digits[o.owed] < o.a {
			break
		}
		o.digits[o.owed] = 0
		o.owed++
	}
	return o.leafBox
}

// NewWorstCaseSource streams the infinite limit profile M_{a,b}, the limit
// of M_{a,b}(n) as n → ∞, which is well defined because M_{a,b}(n) is a
// prefix of M_{a,b}(n·b): size-1 leaves, and a box of size b^j after every
// a^j-th leaf, closing the j-th recursion level.
func NewWorstCaseSource(a, b int64) (*OdometerSource, error) {
	if err := ValidateAB(a, b); err != nil {
		return nil, err
	}
	if a < 2 {
		return nil, fmt.Errorf("profile: limit profile needs a >= 2 (a = 1 never closes level boxes)")
	}
	return newOdometer(a, 1, powCloser(b))
}

// powCloser returns the closer of M_{a,b}: level j closes with a box of b^j.
func powCloser(b int64) func(level int) (int64, bool) {
	return func(level int) (int64, bool) { return checkedPow(b, level) }
}

// Prefix materialises the stream's next count boxes. From a fresh source
// they are the finite profile whose root box is the count-th.
func (o *OdometerSource) Prefix(count int) *SquareProfile {
	boxes := make([]int64, count)
	for i := range boxes {
		boxes[i] = o.Next()
	}
	return &SquareProfile{boxes: boxes}
}
