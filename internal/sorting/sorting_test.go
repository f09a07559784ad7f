package sorting

import (
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

// The numeric twin of the traced recursion: a real two-way merge sort
// with the same halving and linear merge, checked against the standard
// library.

// MergeSort returns a sorted copy of xs using top-down two-way merge sort.
func MergeSort(xs []int64) []int64 {
	out := make([]int64, len(xs))
	copy(out, xs)
	buf := make([]int64, len(xs))
	mergeSortRec(out, buf)
	return out
}

func mergeSortRec(xs, buf []int64) {
	if len(xs) <= 1 {
		return
	}
	h := len(xs) / 2
	mergeSortRec(xs[:h], buf[:h])
	mergeSortRec(xs[h:], buf[h:])
	// Merge into buf, copy back: the linear scan.
	i, j, k := 0, h, 0
	for i < h && j < len(xs) {
		if xs[i] <= xs[j] {
			buf[k] = xs[i]
			i++
		} else {
			buf[k] = xs[j]
			j++
		}
		k++
	}
	for i < h {
		buf[k] = xs[i]
		i++
		k++
	}
	for j < len(xs) {
		buf[k] = xs[j]
		j++
		k++
	}
	copy(xs, buf)
}

// IsSorted reports whether xs is non-decreasing.
func IsSorted(xs []int64) bool {
	for i := 1; i < len(xs); i++ {
		if xs[i] < xs[i-1] {
			return false
		}
	}
	return true
}

// RandomSlice returns n values uniform in [0, bound).
func RandomSlice(n int, bound int64, src *xrand.Source) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = src.Int63n(bound)
	}
	return out
}

func TestMergeSortKnown(t *testing.T) {
	cases := [][]int64{
		{},
		{1},
		{2, 1},
		{3, 1, 2},
		{5, 4, 3, 2, 1},
		{1, 1, 1},
		{7, 3, 7, 1, 3},
	}
	for _, in := range cases {
		out := MergeSort(in)
		if !IsSorted(out) {
			t.Errorf("MergeSort(%v) = %v not sorted", in, out)
		}
		if len(out) != len(in) {
			t.Errorf("length changed: %v -> %v", in, out)
		}
	}
}

func TestMergeSortDoesNotMutateInput(t *testing.T) {
	in := []int64{3, 1, 2}
	_ = MergeSort(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Error("input mutated")
	}
}

func TestMergeSortMatchesStdlib(t *testing.T) {
	src := xrand.New(41)
	for _, n := range []int{10, 100, 1000, 4096} {
		in := RandomSlice(n, 1000, src)
		got := MergeSort(in)
		want := append([]int64(nil), in...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: mismatch at %d", n, i)
			}
		}
	}
}

// Property: output sorted, same multiset (checked via sum and length plus
// sorted-equality with stdlib).
func TestMergeSortProperty(t *testing.T) {
	check := func(raw []int16) bool {
		in := make([]int64, len(raw))
		for i, v := range raw {
			in[i] = int64(v)
		}
		got := MergeSort(in)
		want := append([]int64(nil), in...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTraceMergeSortValidation(t *testing.T) {
	if _, err := TraceMergeSort(12, 4); err == nil {
		t.Error("non-power accepted")
	}
	if _, err := TraceMergeSort(4, 4); err == nil {
		t.Error("below base accepted")
	}
	if _, err := TraceMergeSort(64, 0); err == nil {
		t.Error("block 0 accepted")
	}
}

func TestTraceMergeSortShape(t *testing.T) {
	tr, err := TraceMergeSort(256, 4)
	if err != nil {
		t.Fatal(err)
	}
	// 2^levels leaves, levels = log2(256/8) = 5.
	if tr.Leaves() != 32 {
		t.Errorf("leaves = %d, want 32", tr.Leaves())
	}
	// Footprint: array + buffer = 2n words = 2·256/4 = 128 blocks.
	if got := tr.DistinctBlocks(); got != 128 {
		t.Errorf("distinct = %d, want 128", got)
	}
}

func TestWorstCaseProfileShape(t *testing.T) {
	if _, err := WorstCaseProfile(12, 4); err == nil {
		t.Error("non-power accepted")
	}
	if _, err := WorstCaseProfile(64, 0); err == nil {
		t.Error("block 0 accepted")
	}
	p, err := WorstCaseProfile(64, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Recursive structure: 2^levels leaf boxes (size 2) and merge boxes of
	// size 2·m/4 per level; levels = log2(64/8) = 3 → 8 leaves, 7 merges.
	if p.Len() != 15 {
		t.Errorf("boxes = %d, want 15", p.Len())
	}
	h := p.SizeHistogram()
	if h[2] != 8 { // leaf boxes: ceil(8/4) = 2
		t.Errorf("leaf boxes %d, want 8 (histogram %v)", h[2], h)
	}
	if h[32] != 1 { // top merge: 2·64/4
		t.Errorf("top merge boxes %d, want 1 (histogram %v)", h[32], h)
	}
}

func TestIsSortedEdge(t *testing.T) {
	if !IsSorted(nil) || !IsSorted([]int64{5}) {
		t.Error("trivial slices not sorted")
	}
	if IsSorted([]int64{2, 1}) {
		t.Error("descending pair reported sorted")
	}
}

// worstCaseProfileRecursive is the textbook Figure-1 recursion for the
// traced merge sort — two half-size profiles, then the merge's 2·⌈m/B⌉
// blocks, with ⌈base/B⌉-block leaves — kept as the oracle the odometer
// must reproduce.
func worstCaseProfileRecursive(n int, blockWords int64) []int64 {
	var boxes []int64
	var build func(m int64)
	build = func(m int64) {
		if m <= sortBaseLen {
			boxes = append(boxes, (m+blockWords-1)/blockWords)
			return
		}
		build(m / 2)
		build(m / 2)
		boxes = append(boxes, 2*((m+blockWords-1)/blockWords))
	}
	build(int64(n))
	return boxes
}

// TestOdometerOracle pins WorstCaseProfile to the recursive builder.
func TestOdometerOracle(t *testing.T) {
	for _, bw := range []int64{1, 4, 8, 64} {
		for n := sortBaseLen; n <= 4096; n *= 2 {
			want := worstCaseProfileRecursive(n, bw)
			got, err := WorstCaseProfile(n, bw)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.Boxes(), want) {
				t.Fatalf("n %d bw %d: WorstCaseProfile differs from the recursive builder", n, bw)
			}
		}
	}
}

// BenchmarkMergeSort measures the numeric merge sort on 64k values.
func BenchmarkMergeSort(b *testing.B) {
	src := xrand.New(8)
	in := RandomSlice(1<<16, 1<<30, src)
	b.SetBytes(int64(len(in) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MergeSort(in)
	}
}
