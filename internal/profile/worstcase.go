package profile

import (
	"fmt"
	"math"
)

// This file implements the canonical worst-case profile M_{a,b}(n) from
// Section 3 (Figure 1) and the "Robustness of Worst-Case Profiles" section.
//
// M_{a,b}(n) is defined recursively: M_{a,b}(n) is a copies of M_{a,b}(n/b)
// followed by a single box of size n, bottoming out at a single box of size
// 1 (block units, B = 1, per the paper's Section 4 simplification — the
// recursion "continues down to squares of Θ(B) blocks").
//
// The canonical (a,b,1)-regular algorithm A_n requires the entirety of
// M_{a,b}(n) to complete: every leaf of the recursion is completed by
// exactly one size-1 box, and every scan of size b^j is completed by exactly
// one size-b^j box — the profile gives the algorithm a large cache precisely
// when it is doing a scan and cannot exploit it. One checks inductively that
// M_{a,b}(n) has total potential n^{log_b a}·(log_b n + 1), a log factor
// above the Θ(n^{log_b a}) an optimally adaptive execution needs, which is
// what makes M_{a,b} a worst-case profile (Theorem 2).

// ValidateAB checks the structural constants of an (a,b,·)-regular
// construction: a >= 1 branching, b >= 2 shrinkage.
func ValidateAB(a, b int64) error {
	if b < 2 {
		return fmt.Errorf("profile: b = %d must be >= 2", b)
	}
	if a < 1 {
		return fmt.Errorf("profile: a = %d must be >= 1", a)
	}
	return nil
}

// IsPowerOf reports whether n is a non-negative power of base (base >= 2).
func IsPowerOf(n, base int64) bool {
	if base < 2 || n < 1 {
		return false
	}
	for n%base == 0 {
		n /= base
	}
	return n == 1
}

// Log returns log_base(n) for n an exact power of base. It is the caller's
// responsibility (checked in validated constructors) that n is a power.
func Log(n, base int64) int {
	k := 0
	for n > 1 {
		n /= base
		k++
	}
	return k
}

// Pow returns base^k as int64. It panics on overflow, which in this
// repository always indicates an experiment sized beyond the simulator's
// design range rather than a recoverable condition.
func Pow(base int64, k int) int64 {
	r, ok := checkedPow(base, k)
	if !ok {
		panic(fmt.Sprintf("profile: %d^%d overflows int64", base, k))
	}
	return r
}

// checkedPow returns base^k (base >= 1), or ok = false if it overflows
// int64.
func checkedPow(base int64, k int) (int64, bool) {
	r := int64(1)
	for i := 0; i < k; i++ {
		if r > math.MaxInt64/base {
			return 0, false
		}
		r *= base
	}
	return r, true
}

// WorstCaseBoxCount returns the number of boxes in M_{a,b}(n) without
// materialising it: boxes(n) satisfies boxes(1) = 1 and
// boxes(n) = a·boxes(n/b) + 1, i.e. (a^{k+1}-1)/(a-1) for n = b^k (and k+1
// when a = 1).
func WorstCaseBoxCount(a, b, n int64) (int64, error) {
	if err := ValidateAB(a, b); err != nil {
		return 0, err
	}
	if !IsPowerOf(n, b) && n != 1 {
		return 0, fmt.Errorf("profile: n = %d is not a power of b = %d", n, b)
	}
	k := Log(n, b)
	count := int64(1)
	for i := 0; i < k; i++ {
		if count > (math.MaxInt64-1)/a {
			return 0, fmt.Errorf("profile: M_{%d,%d}(%d) has too many boxes for int64", a, b, n)
		}
		count = a*count + 1
	}
	return count, nil
}

// WorstCasePotential returns the exact total potential of M_{a,b}(n) under
// exponent e = log_b a: Σ_{j=0..k} a^{k-j}·(b^j)^e = (k+1)·a^k, where
// n = b^k. This closed form is what experiment E1 checks the materialised
// profile against.
func WorstCasePotential(a, b, n int64) (float64, error) {
	if err := ValidateAB(a, b); err != nil {
		return 0, err
	}
	if !IsPowerOf(n, b) && n != 1 {
		return 0, fmt.Errorf("profile: n = %d is not a power of b = %d", n, b)
	}
	k := Log(n, b)
	return float64(k+1) * math.Pow(float64(a), float64(k)), nil
}

// WorstCase materialises M_{a,b}(n), the first WorstCaseBoxCount(a, b, n)
// boxes of the limit stream. n must be a power of b. The constructor
// refuses sizes whose box count exceeds maxBoxes (2^31) to keep accidental
// OOMs impossible — use NewWorstCaseSource for streaming access to larger
// instances.
func WorstCase(a, b, n int64) (*SquareProfile, error) {
	const maxBoxes = int64(1) << 31
	count, err := WorstCaseBoxCount(a, b, n)
	if err != nil {
		return nil, err
	}
	if count > maxBoxes {
		return nil, fmt.Errorf("profile: M_{%d,%d}(%d) would have %d boxes; stream it with NewWorstCaseSource instead", a, b, n, count)
	}
	// a = 1 has no infinite stream, but its finite profile 1, b, ..., n is
	// the odometer's first k+1 boxes all the same.
	src, err := newOdometer(a, 1, powCloser(b))
	if err != nil {
		return nil, err
	}
	return src.Prefix(int(count)), nil
}
