package xrand

import "testing"

// boundedTwoDivisions is the textbook Lemire-rejection form boundedUint64
// replaced: the threshold (2^64 mod n) is computed on every call.
func boundedTwoDivisions(s *Source, n uint64) uint64 {
	t := (-n) % n
	for {
		v := s.Uint64()
		if v >= t {
			return v % n
		}
	}
}

// boundedTestNs are the ranges the equivalence tests draw from: n = 1,
// powers of two, small odd ranges, and ranges near 2^63 and 2^64 where
// almost half of all draws are rejected.
var boundedTestNs = []uint64{
	1, 2, 3, 5, 7, 10, 64, 1000, 1 << 20, 1<<31 - 1, 1 << 32, 1<<32 + 1,
	1<<62 + 1, 1<<63 - 1, 1 << 63, 1<<63 + 1, 1<<63 + 12345, 1<<64 - 2, 1<<64 - 1,
}

// TestBoundedMatchesTwoDivisions: over many seeds and ranges, the
// one-division boundedUint64 returns the same values and leaves the
// generator in the same state as the two-division form.
func TestBoundedMatchesTwoDivisions(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		for _, n := range boundedTestNs {
			got, want := New(Split(seed, "bounded", int64(n>>1))), New(Split(seed, "bounded", int64(n>>1)))
			for i := 0; i < 64; i++ {
				g, w := got.boundedUint64(n), boundedTwoDivisions(want, n)
				if g != w || got.state != want.state {
					t.Fatalf("seed %d, n %d, draw %d: got %d (state %#x), want %d (state %#x)",
						seed, n, i, g, got.state, w, want.state)
				}
			}
		}
	}
}

// unmix inverts mix: each xorshift step and each odd multiplier is
// invertible modulo 2^64.
func unmix(z uint64) uint64 {
	z = unshift(z, 31)
	z *= inverseOdd(0x94d049bb133111eb)
	z = unshift(z, 27)
	z *= inverseOdd(0xbf58476d1ce4e5b9)
	return unshift(z, 30)
}

// unshift inverts z ^= z >> k.
func unshift(z uint64, k uint) uint64 {
	x := z
	for i := 0; i < 64; i += int(k) {
		x = z ^ x>>k
	}
	return x
}

// inverseOdd returns a's multiplicative inverse modulo 2^64 (Newton's
// iteration; a must be odd).
func inverseOdd(a uint64) uint64 {
	x := a
	for i := 0; i < 6; i++ {
		x *= 2 - a*x
	}
	return x
}

// sourceEmitting returns a Source whose next Uint64 is v.
func sourceEmitting(v uint64) *Source {
	return &Source{state: unmix(v) - 0x9e3779b97f4a7c15}
}

// TestBoundedSmallDrawPath forces the path the one-division form takes
// only rarely: a first draw below n, once accepted (at or above the
// threshold) and once rejected (below it, so a second draw is made).
func TestBoundedSmallDrawPath(t *testing.T) {
	for _, v := range []uint64{0, 1, 2, 5, 1 << 40, 1<<63 - 2} {
		if got := sourceEmitting(v).Uint64(); got != v {
			t.Fatalf("crafted source emits %#x, want %#x", got, v)
		}
	}
	cases := []struct {
		n, first uint64
		rejected bool
	}{
		{n: 3, first: 2, rejected: false},        // threshold 2^64 mod 3 = 1
		{n: 3, first: 0, rejected: true},         // below the threshold
		{n: 1<<63 + 1, first: 5, rejected: true}, // threshold 2^63 - 1
		{n: 1<<63 + 1, first: 1<<63 - 2, rejected: true},
		{n: 1<<63 + 1, first: 1<<63 - 1, rejected: false}, // exactly the threshold
		{n: 1 << 10, first: 7, rejected: false},           // powers of two: threshold 0
		{n: 1, first: 0, rejected: false},
	}
	for _, c := range cases {
		got, want := sourceEmitting(c.first), sourceEmitting(c.first)
		g, w := got.boundedUint64(c.n), boundedTwoDivisions(want, c.n)
		if g != w || got.state != want.state {
			t.Fatalf("n %d, first draw %d: got %d, two-division form %d", c.n, c.first, g, w)
		}
		accepted := g == c.first%c.n && got.state == sourceEmitting(c.first).state+0x9e3779b97f4a7c15
		if accepted == c.rejected {
			t.Fatalf("n %d, first draw %d: rejected=%v, want %v", c.n, c.first, !accepted, c.rejected)
		}
	}
}

// benchRanges are BenchmarkInt63n's ranges. They are read at run time, as
// the ranges of Shuffle and the smoothings are, so the compiler cannot
// fold the divisions into multiplications by a constant.
var benchRanges = []int64{1000003, 64, 4097, 1<<40 + 3}

// BenchmarkInt63n measures one bounded draw from ranges not known at
// compile time, none of them a power of two but 64.
func BenchmarkInt63n(b *testing.B) {
	s := New(1)
	var sink int64
	for i := 0; i < b.N; i++ {
		sink += s.Int63n(benchRanges[i&3])
	}
	if sink == -1 {
		b.Fatal("unreachable")
	}
}
