package profile

import (
	"slices"
	"testing"
)

// appendWorstCaseRecursive is the textbook recursion of Figure 1 — a copies
// of M_{a,b}(n/b) followed by one box of size n — kept as the oracle the
// odometer must reproduce.
func appendWorstCaseRecursive(dst []int64, a, b, n int64) []int64 {
	if n <= 1 {
		return append(dst, 1)
	}
	for i := int64(0); i < a; i++ {
		dst = appendWorstCaseRecursive(dst, a, b, n/b)
	}
	return append(dst, n)
}

// TestOdometerOracle pins WorstCase to the recursive builder box for box;
// TestWorstCaseSourceMatchesMaterialised pins the limit stream to
// WorstCase.
func TestOdometerOracle(t *testing.T) {
	for _, ab := range []struct{ a, b int64 }{{2, 2}, {4, 2}, {8, 4}, {3, 3}, {1, 2}} {
		for k := 0; k <= 6; k++ {
			n := Pow(ab.b, k)
			want := appendWorstCaseRecursive(nil, ab.a, ab.b, n)
			p, err := WorstCase(ab.a, ab.b, n)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(p.Boxes(), want) {
				t.Fatalf("M_{%d,%d}(%d) differs from the recursive builder", ab.a, ab.b, n)
			}
		}
	}
}

// TestOdometerSourceMatchesWorstCaseSource checks that the general
// odometer with leaf 1 and closers b^j is exactly the M_{a,b} stream.
func TestOdometerSourceMatchesWorstCaseSource(t *testing.T) {
	w, err := NewWorstCaseSource(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	o, err := NewOdometerSource(8, 1, func(level int) (int64, bool) { return Pow(4, level), true })
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		want, got := w.Next(), o.Next()
		if got != want {
			t.Fatalf("box %d: odometer %d, want M_{8,4} %d", i, got, want)
		}
	}
}

// TestOdometerTableEnds pins where the closer table stops: at the deepest
// level an int64 leaf count reaches, or earlier where a closer overflows.
func TestOdometerTableEnds(t *testing.T) {
	for _, tc := range []struct {
		a, b int64
		want int
	}{
		{2, 2, 62}, // 2^63 leaves overflow; 2^62 fits
		{8, 4, 20}, // 8^21 = 2^63 overflows
		{2, 4, 31}, // 4^32 overflows before 2^62 leaves
		{3, 3, 39},
	} {
		o, err := NewWorstCaseSource(tc.a, tc.b)
		if err != nil {
			t.Fatal(err)
		}
		if len(o.closers) != tc.want {
			t.Errorf("M_{%d,%d}: %d closer levels, want %d", tc.a, tc.b, len(o.closers), tc.want)
		}
	}
}

func TestOdometerSourceValidates(t *testing.T) {
	one := func(int) (int64, bool) { return 1, true }
	if _, err := NewOdometerSource(1, 1, one); err == nil {
		t.Fatal("a = 1 accepted")
	}
	if _, err := NewOdometerSource(4, 0, one); err == nil {
		t.Fatal("leaf box 0 accepted")
	}
	if _, err := NewOdometerSource(4, 1, func(int) (int64, bool) { return 0, true }); err == nil {
		t.Fatal("closing box 0 accepted")
	}
}

// TestOdometerNextZeroAlloc guards the streaming contract: once built, the
// odometer emits boxes without allocating, however deep the levels it
// closes.
//
// allocguard:OdometerSource.Next
func TestOdometerNextZeroAlloc(t *testing.T) {
	o, err := NewWorstCaseSource(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(1, func() {
		for i := 0; i < 300_000; i++ {
			o.Next()
		}
	}); n != 0 {
		t.Fatalf("Next allocated %v times per 300k boxes, want 0", n)
	}
}
