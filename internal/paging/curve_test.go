package paging

import (
	"testing"

	"repro/internal/matrix"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// checkStackCurve requires StackCurve(p, tr, lo, hi)[M-lo] to equal the
// per-capacity kernel replay RunPolicyFixed(p, tr, M) for every M in
// [lo, hi], for both stack policies.
func checkStackCurve(t *testing.T, tr *trace.Trace, lo, hi int64) {
	t.Helper()
	for _, p := range []string{"lru", OPTReplayName} {
		curve, err := StackCurve(p, tr, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(curve)) != hi-lo+1 {
			t.Fatalf("%s: curve over [%d, %d] has %d points", p, lo, hi, len(curve))
		}
		for m := lo; m <= hi; m++ {
			want, err := RunPolicyFixed(p, tr, m)
			if err != nil {
				t.Fatal(err)
			}
			if got := curve[m-lo]; got != want {
				t.Fatalf("%s M=%d (curve [%d, %d], %d refs): curve %d faults, kernel %d",
					p, m, lo, hi, tr.Len(), got, want)
			}
		}
	}
}

func TestStackCurveMatchesKernelsOnMulScan(t *testing.T) {
	for _, dim := range []int{16, 32, 64} {
		tr, err := matrix.TraceMulScan(dim, 8)
		if err != nil {
			t.Fatal(err)
		}
		checkStackCurve(t, tr, 1, 136)
	}
}

func TestStackCurveMatchesKernelsOnRandomTraces(t *testing.T) {
	rng := xrand.New(13)
	for i := 0; i < 300; i++ {
		universe := 1 + rng.Int63n(64)
		var b trace.Builder
		for n := 1 + rng.Int63n(512); n > 0; n-- {
			b.Access(rng.Int63n(universe))
		}
		hi := 1 + rng.Int63n(48)
		checkStackCurve(t, b.Build(), 1+rng.Int63n(hi), hi)
	}
}

func TestStackCurveValidation(t *testing.T) {
	var b trace.Builder
	b.Access(3)
	tr := b.Build()
	for _, tc := range []struct {
		name   string
		lo, hi int64
	}{
		{"fifo", 1, 4}, {"square", 1, 4}, {"lru", 0, 4}, {"opt", 5, 4}, {"lru", -1, -1},
	} {
		if _, err := StackCurve(tc.name, tr, tc.lo, tc.hi); err == nil {
			t.Errorf("StackCurve(%q, [%d, %d]) accepted", tc.name, tc.lo, tc.hi)
		}
	}
	for _, name := range ReplayNames() {
		_, err := StackCurve(name, tr, 1, 4)
		if IsStackPolicy(name) != (err == nil) {
			t.Errorf("%s: IsStackPolicy %v, StackCurve error %v", name, IsStackPolicy(name), err)
		}
	}
	// An empty trace has no faults at any capacity.
	for _, p := range []string{"lru", OPTReplayName} {
		curve, err := StackCurve(p, (&trace.Builder{}).Build(), 2, 5)
		if err != nil || len(curve) != 4 || curve[0] != 0 || curve[3] != 0 {
			t.Errorf("%s on empty trace: %v, %v", p, curve, err)
		}
	}
}

// FuzzStackCurveMatchesKernels checks the one-pass curves against the
// per-capacity kernels on arbitrary traces: data's bytes are blocks taken
// modulo a universe of 1..64 (at most 512 references), the curve's top
// capacity hi is 1..48, and it is checked from lo = 1 and from a fuzzed
// lo in [1, hi].
func FuzzStackCurveMatchesKernels(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5}, uint8(5), uint8(3), uint8(1)) // Belady's FIFO-anomaly string
	f.Add([]byte{7, 7, 7, 7}, uint8(0), uint8(1), uint8(0))                         // a single block
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), uint8(63), uint8(47), uint8(9))
	f.Add([]byte{0, 1, 2, 0, 1, 3, 0, 1, 2, 3, 4, 0}, uint8(5), uint8(2), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, universe, hiRaw, loRaw uint8) {
		if len(data) == 0 {
			data = []byte{0}
		}
		if len(data) > 512 {
			data = data[:512]
		}
		u := int64(universe%64) + 1
		var b trace.Builder
		for _, by := range data {
			b.Access(int64(by) % u)
		}
		tr := b.Build()
		hi := int64(hiRaw%48) + 1
		checkStackCurve(t, tr, 1, hi)
		if lo := int64(loRaw)%hi + 1; lo > 1 {
			checkStackCurve(t, tr, lo, hi)
		}
	})
}
