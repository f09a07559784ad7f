package matrix

import (
	"slices"
	"testing"

	"repro/internal/profile"
)

// worstCaseProfileRecursive is the textbook Figure-1 recursion for the
// traced MM-Scan — eight copies of the half-size profile, then the level's
// 3·d²/B-block merge-scan box, with 3·⌈base²/B⌉-block leaves — kept as the
// oracle the odometer stream must reproduce.
func worstCaseProfileRecursive(t *testing.T, dim int, blockWords int64) *profile.SquareProfile {
	t.Helper()
	var boxes []int64
	var build func(d int64)
	build = func(d int64) {
		if d <= traceBaseDim {
			boxes = append(boxes, 3*((d*d+blockWords-1)/blockWords))
			return
		}
		for i := 0; i < 8; i++ {
			build(d / 2)
		}
		boxes = append(boxes, 3*d*d/blockWords)
	}
	build(int64(dim))
	p, err := profile.New(boxes)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestWorstCaseBoxStreamMatchesProfile pins the stream and
// WorstCaseProfile against the recursive Figure-1 profile: both must be
// the profile exactly, and (count, duration) must match its length and
// duration. This is the equivalence E9's streamed rungs stand on.
func TestWorstCaseBoxStreamMatchesProfile(t *testing.T) {
	for dim := 8; dim <= 256; dim *= 2 {
		for _, bw := range []int64{1, 8, 16, 64} {
			wc := worstCaseProfileRecursive(t, dim, bw)
			got, err := WorstCaseProfile(dim, bw)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.Boxes(), wc.Boxes()) {
				t.Fatalf("dim %d bw %d: WorstCaseProfile differs from the recursive profile", dim, bw)
			}
			src, count, duration, err := WorstCaseBoxStream(dim, bw)
			if err != nil {
				t.Fatal(err)
			}
			if count != int64(wc.Len()) {
				t.Fatalf("dim %d bw %d: count = %d, profile has %d boxes", dim, bw, count, wc.Len())
			}
			if duration != wc.Duration() {
				t.Fatalf("dim %d bw %d: duration = %d, profile duration %d", dim, bw, duration, wc.Duration())
			}
			for i := 0; i < wc.Len(); i++ {
				if got, want := src.Next(), wc.Box(i); got != want {
					t.Fatalf("dim %d bw %d: stream box %d = %d, profile box %d", dim, bw, i, got, want)
				}
			}
		}
	}
}

func TestWorstCaseBoxStreamValidates(t *testing.T) {
	if _, _, _, err := WorstCaseBoxStream(7, 8); err == nil {
		t.Fatal("non-power-of-two dim accepted")
	}
	if _, _, _, err := WorstCaseBoxStream(64, 0); err == nil {
		t.Fatal("block size 0 accepted")
	}
}
