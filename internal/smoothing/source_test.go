package smoothing

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/profile"
	"repro/internal/xrand"
)

// sourceTestProfiles are the profiles the streamed sources are checked on:
// M_{8,4}(4^k) for k = 3..5 and a random profile whose sizes repeat.
func sourceTestProfiles(t *testing.T) []namedProfile {
	t.Helper()
	var ps []namedProfile
	for k := 3; k <= 5; k++ {
		wc, err := profile.WorstCase(8, 4, profile.Pow(4, k))
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, namedProfile{fmt.Sprintf("M_{8,4}(4^%d)", k), wc})
	}
	rng := xrand.New(xrand.Split(3, "source-test-profile"))
	boxes := make([]int64, 777)
	for i := range boxes {
		boxes[i] = 1 + rng.Int63n(200)
	}
	return append(ps, namedProfile{"random", profile.MustNew(boxes)})
}

type namedProfile struct {
	name string
	p    *profile.SquareProfile
}

// firstBoxes returns the first n boxes of src.
func firstBoxes(src profile.Source, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = src.Next()
	}
	return out
}

// cycled returns the first n boxes of p cycled, as profile.SliceSource
// streams a materialised smoothing.
func cycled(t *testing.T, p *profile.SquareProfile, n int) []int64 {
	t.Helper()
	src, err := profile.NewSliceSource(p)
	if err != nil {
		t.Fatal(err)
	}
	return firstBoxes(src, n)
}

func equalBoxes(a, b []int64) (int, bool) {
	for i := range a {
		if a[i] != b[i] {
			return i, false
		}
	}
	return 0, len(a) == len(b)
}

// checkSourcesMatchMaterialised runs, for each seed in seeds, every
// streamed source against its materialising twin from the same rng state:
// the first 2·Len() boxes — one wrap included — and up to 16 more must be
// identical. One source of each kind serves every seed, and the trials end
// at varying positions, so Reset must leave nothing of the previous trial
// behind. The per-profile tables are only read.
func checkSourcesMatchMaterialised(t *testing.T, name string, p *profile.SquareProfile, coded *CodedProfile, rot *RotationTable, seeds []uint64) {
	var (
		shuffled  ShuffledSource
		perturbed PerturbedSource
		rotated   RotatedSource
	)
	for _, seed := range seeds {
		n := 2*p.Len() + int(seed%17)
		shuffled.Reset(coded, xrand.New(seed))
		want := cycled(t, Shuffle(p, xrand.New(seed)), n)
		if i, ok := equalBoxes(firstBoxes(&shuffled, n), want); !ok {
			t.Errorf("%s seed %d: shuffled source differs from Shuffle at box %d", name, seed, i)
		}

		for _, tf := range []int64{1, 2, 16} {
			if err := perturbed.Reset(p, xrand.New(seed), tf); err != nil {
				t.Error(err)
				return
			}
			pp, err := PerturbSizes(p, xrand.New(seed), tf)
			if err != nil {
				t.Error(err)
				return
			}
			if i, ok := equalBoxes(firstBoxes(&perturbed, n), cycled(t, pp, n)); !ok {
				t.Errorf("%s seed %d t %d: perturbed source differs from PerturbSizes at box %d", name, seed, tf, i)
			}
		}

		rotated.Reset(rot, xrand.New(seed))
		rp, err := RandomRotation(p, xrand.New(seed))
		if err != nil {
			t.Error(err)
			return
		}
		if i, ok := equalBoxes(firstBoxes(&rotated, n), cycled(t, rp, n)); !ok {
			t.Errorf("%s seed %d: rotated source differs from RandomRotation at box %d", name, seed, i)
		}
	}
}

// TestSourcesMatchMaterialised: over 50 seeds, the shuffled, perturbed
// (t ∈ {1, 2, 16}) and rotated sources yield exactly the boxes of
// Shuffle, PerturbSizes and RandomRotation from the same rng state, wrap
// included. Two goroutines share each profile and its tables read-only,
// each with its own sources, so the race detector sees the sharing the
// engine workers do.
func TestSourcesMatchMaterialised(t *testing.T) {
	var seeds [2][]uint64
	for s := uint64(0); s < 50; s++ {
		seeds[s%2] = append(seeds[s%2], xrand.Split(s, "source-test"))
	}
	for _, np := range sourceTestProfiles(t) {
		name, p := np.name, np.p
		coded, err := NewCodedProfile(p)
		if err != nil {
			t.Fatal(err)
		}
		rot, err := NewRotationTable(p)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := range seeds {
			wg.Add(1)
			go func() {
				defer wg.Done()
				checkSourcesMatchMaterialised(t, name, p, coded, rot, seeds[g])
			}()
		}
		wg.Wait()
	}
}

// TestSourcesValidate: the per-profile tables refuse an empty profile, the
// coded profile refuses more than 256 distinct sizes, and the perturbed
// source refuses t < 1 and an empty profile.
func TestSourcesValidate(t *testing.T) {
	empty := profile.MustNew(nil)
	if _, err := NewCodedProfile(empty); err == nil {
		t.Error("NewCodedProfile accepted an empty profile")
	}
	if _, err := NewRotationTable(empty); err == nil {
		t.Error("NewRotationTable accepted an empty profile")
	}
	boxes := make([]int64, 300)
	for i := range boxes {
		boxes[i] = int64(i%257) + 1
	}
	if _, err := NewCodedProfile(profile.MustNew(boxes[:256])); err != nil {
		t.Errorf("NewCodedProfile rejected 256 distinct sizes: %v", err)
	}
	_, err := NewCodedProfile(profile.MustNew(boxes))
	if err == nil || !strings.Contains(err.Error(), "256") {
		t.Errorf("NewCodedProfile with 257 distinct sizes: err %v, want one naming the 256 limit", err)
	}
	var ps PerturbedSource
	if err := ps.Reset(profile.MustNew([]int64{4}), xrand.New(1), 0); err == nil {
		t.Error("PerturbedSource accepted t = 0")
	}
	if err := ps.Reset(empty, xrand.New(1), 2); err == nil {
		t.Error("PerturbedSource accepted an empty profile")
	}
}
