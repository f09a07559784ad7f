package profile_test

import (
	"fmt"

	"repro/internal/profile"
)

// The Figure-1 worst-case profile: a copies of M(n/b) followed by one box
// of size n.
func ExampleWorstCase() {
	p, err := profile.WorstCase(2, 2, 4)
	if err != nil {
		panic(err)
	}
	fmt.Println(p.Boxes())
	// Output: [1 1 2 1 1 2 4]
}

// The infinite limit profile streams M_{a,b} box by box.
func ExampleNewWorstCaseSource() {
	src, err := profile.NewWorstCaseSource(2, 2)
	if err != nil {
		panic(err)
	}
	for i := 0; i < 7; i++ {
		fmt.Print(src.Next(), " ")
	}
	fmt.Println()
	// Output: 1 1 2 1 1 2 4
}

// Squarize reduces an arbitrary memory profile m(t) to a square profile
// with the greedy inner-square construction.
func ExampleSquarize() {
	m := []int64{3, 3, 3, 1, 2, 2}
	p, err := profile.Squarize(m)
	if err != nil {
		panic(err)
	}
	fmt.Println(p.Boxes())
	// Output: [3 1 2]
}

// BoundedPotential is the left-hand side of the paper's efficiency
// criterion (Equation 2).
func ExampleSquareProfile_BoundedPotential() {
	p := profile.MustNew([]int64{1, 4, 16})
	// exponent log_4 8 = 1.5; clamp at n = 4.
	fmt.Printf("%.0f\n", p.BoundedPotential(4, 1.5))
	// Output: 17
}
