package xrand

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 collided %d/100 times", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split()
	c2 := parent.Split()
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("sibling splits produced identical first output")
	}
}

func TestIntnRange(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		v := s.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d out of range", v)
		}
	}
}

func TestIntnPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	s := New(11)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[s.Intn(n)]++
	}
	want := float64(trials) / n
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("value %d count %d too far from expected %.0f", v, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(5)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %g out of [0,1)", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(9)
	sum := 0.0
	const trials = 200000
	for i := 0; i < trials; i++ {
		sum += s.Float64()
	}
	mean := sum / trials
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("Float64 mean %.4f far from 0.5", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(13)
	check := func(n uint8) bool {
		size := int(n%50) + 1
		p := s.Perm(size)
		seen := make([]bool, size)
		for _, v := range p {
			if v < 0 || v >= size || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

// TestShufflePinned pins Shuffle to the permutations the module has always
// drawn: for each seed and length, the FNV-64a hash of the permutation of
// [0, n), and the source's next draw after it (which pins how many values
// the shuffle consumed). Golden tables depend on both.
func TestShufflePinned(t *testing.T) {
	for _, tc := range []struct {
		seed       uint64
		n          int
		hash, next uint64
	}{
		{1, 0, 0xcbf29ce484222325, 0x910a2dec89025cc1},
		{1, 1, 0xa8c7f832281a39c5, 0x910a2dec89025cc1},
		{1, 2, 0x692558b056101a44, 0xbeeb8da1658eec67},
		{1, 1000, 0x1e23c4445b2d87ed, 0xe71894b1b5034fb7},
		{2, 0, 0xcbf29ce484222325, 0x975835de1c9756ce},
		{2, 1, 0xa8c7f832281a39c5, 0x975835de1c9756ce},
		{2, 2, 0x392209f14dea4c24, 0xbfc846100bfc1e42},
		{2, 1000, 0x1ef80234b4495029, 0x509b3463d01d7ad8},
	} {
		hashOf := func(p []int) uint64 {
			h := fnv.New64a()
			var buf [8]byte
			for _, v := range p {
				binary.LittleEndian.PutUint64(buf[:], uint64(v))
				h.Write(buf[:])
			}
			return h.Sum64()
		}
		s := New(tc.seed)
		p := s.Perm(tc.n)
		if got := hashOf(p); got != tc.hash {
			t.Errorf("seed %d n %d: Perm hash %#x, want %#x", tc.seed, tc.n, got, tc.hash)
		}
		if got := s.Uint64(); got != tc.next {
			t.Errorf("seed %d n %d: next draw %#x, want %#x", tc.seed, tc.n, got, tc.next)
		}
		// Any element type draws the same permutation.
		s = New(tc.seed)
		q := make([]uint8, tc.n)
		for i := range q {
			q[i] = uint8(i)
		}
		Shuffle(s, q)
		for i := range q {
			if q[i] != uint8(p[i]) {
				t.Fatalf("seed %d n %d: Shuffle of []uint8 differs from Perm at %d", tc.seed, tc.n, i)
			}
		}
	}
}

func TestShuffleUniformFirstElement(t *testing.T) {
	s := New(17)
	const n, trials = 5, 50000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		p := s.Perm(n)
		counts[p[0]]++
	}
	want := float64(trials) / n
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("perm[0]=%d count %d far from %.0f", v, c, want)
		}
	}
}

func TestGeometricMean(t *testing.T) {
	s := New(19)
	const p, trials = 0.25, 100000
	sum := 0
	for i := 0; i < trials; i++ {
		sum += s.Geometric(p)
	}
	mean := float64(sum) / trials
	want := (1 - p) / p // mean of failures-before-success
	if math.Abs(mean-want) > 0.1 {
		t.Fatalf("geometric mean %.3f, want ~%.3f", mean, want)
	}
}

func TestNormMoments(t *testing.T) {
	s := New(23)
	const trials = 200000
	var sum, sumSq float64
	for i := 0; i < trials; i++ {
		v := s.Norm()
		sum += v
		sumSq += v * v
	}
	mean := sum / trials
	variance := sumSq/trials - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean %.4f not ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance %.4f not ~1", variance)
	}
}

func TestExpMean(t *testing.T) {
	s := New(29)
	const trials = 200000
	sum := 0.0
	for i := 0; i < trials; i++ {
		sum += s.Exp()
	}
	if mean := sum / trials; math.Abs(mean-1) > 0.02 {
		t.Fatalf("exp mean %.4f not ~1", mean)
	}
}
