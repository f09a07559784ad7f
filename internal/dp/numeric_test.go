package dp

// The numeric twins of the traced kernel: LCS and edit distance by the
// classic row-by-row DP (the reference), and by the boundary-passing
// quadrant recursion with the same baseLen cutoff as the emitter. They are
// test oracles: the tests check the recursion against the classic DP.

import (
	"fmt"
	"testing"

	"repro/internal/xrand"
)

// LCSLength returns the length of the longest common subsequence of x and
// y, by the classic dynamic program (two rolling rows, O(|x|·|y|) time).
func LCSLength(x, y string) int {
	if len(x) == 0 || len(y) == 0 {
		return 0
	}
	prev := make([]int, len(y)+1)
	cur := make([]int, len(y)+1)
	for i := 1; i <= len(x); i++ {
		for j := 1; j <= len(y); j++ {
			switch {
			case x[i-1] == y[j-1]:
				cur[j] = prev[j-1] + 1
			case prev[j] >= cur[j-1]:
				cur[j] = prev[j]
			default:
				cur[j] = cur[j-1]
			}
		}
		prev, cur = cur, prev
	}
	return prev[len(y)]
}

// EditDistance returns the Levenshtein distance between x and y (unit
// costs), by the classic dynamic program.
func EditDistance(x, y string) int {
	prev := make([]int, len(y)+1)
	cur := make([]int, len(y)+1)
	for j := 0; j <= len(y); j++ {
		prev[j] = j
	}
	for i := 1; i <= len(x); i++ {
		cur[0] = i
		for j := 1; j <= len(y); j++ {
			cost := 1
			if x[i-1] == y[j-1] {
				cost = 0
			}
			best := prev[j-1] + cost // substitute / match
			if d := prev[j] + 1; d < best {
				best = d // delete
			}
			if d := cur[j-1] + 1; d < best {
				best = d // insert
			}
			cur[j] = best
		}
		prev, cur = cur, prev
	}
	return prev[len(y)]
}

// dpRule is the cell update of a grid DP: given the three neighbour values
// and the two characters, produce the cell value.
type dpRule func(diag, up, left int, xc, yc byte) int

func lcsRule(diag, up, left int, xc, yc byte) int {
	if xc == yc {
		return diag + 1
	}
	if up >= left {
		return up
	}
	return left
}

func editRule(diag, up, left int, xc, yc byte) int {
	cost := 1
	if xc == yc {
		cost = 0
	}
	best := diag + cost
	if d := up + 1; d < best {
		best = d
	}
	if d := left + 1; d < best {
		best = d
	}
	return best
}

// boundary is the DP state crossing into a block: the block [i0,i1)×[j0,j1)
// is determined by the values D[i0-1][j0-1..j1-1] (top, length cols+1) and
// D[i0..i1-1][j0-1] (left, length rows). Solving the block yields its
// bottom row D[i1-1][j0-1..j1-1] and right column D[i0..i1-1][j1-1], which
// seed the neighbouring blocks.
type boundary struct {
	top  []int // length cols+1: includes the corner D[i0-1][j0-1]
	left []int // length rows
}

// solveBlockBase computes a block of the DP directly, returning the bottom
// boundary (same shape as the input boundary but for the block's far
// edges).
func solveBlockBase(rule dpRule, x, y string, in boundary) boundary {
	rows, cols := len(in.left), len(in.top)-1
	// cur[j] spans j0-1..j1-1 (cols+1 entries).
	cur := make([]int, cols+1)
	copy(cur, in.top)
	right := make([]int, rows)
	for i := 0; i < rows; i++ {
		diag := cur[0]
		cur[0] = in.left[i]
		for j := 1; j <= cols; j++ {
			newDiag := cur[j]
			cur[j] = rule(diag, newDiag, cur[j-1], x[i], y[j-1])
			diag = newDiag
		}
		right[i] = cur[cols]
	}
	return boundary{top: cur, left: right}
}

// solveBlockRec is the boundary-passing quadrant recursion. It requires
// len(x) == len(y) for simplicity of the quadrant split (the public
// entry points pad internally when needed... they don't: they require
// power-of-two equal lengths and document it).
func solveBlockRec(rule dpRule, x, y string, in boundary) boundary {
	n := len(x)
	if n <= baseLen {
		return solveBlockBase(rule, x, y, in)
	}
	h := n / 2
	x1, x2 := x[:h], x[h:]
	y1, y2 := y[:h], y[h:]

	// Quadrants: Q11 = (x1,y1), Q12 = (x1,y2), Q21 = (x2,y1), Q22 = (x2,y2).
	q11 := solveBlockRec(rule, x1, y1, boundary{top: in.top[:h+1], left: in.left[:h]})

	topQ12 := make([]int, h+1)
	topQ12[0] = in.top[h]
	copy(topQ12[1:], in.top[h+1:])
	q12 := solveBlockRec(rule, x1, y2, boundary{top: topQ12, left: q11.left})

	topQ21 := make([]int, h+1)
	topQ21[0] = in.left[h-1]
	copy(topQ21[1:], q11.top[1:])
	q21 := solveBlockRec(rule, x2, y1, boundary{top: topQ21, left: in.left[h:]})

	topQ22 := make([]int, h+1)
	topQ22[0] = q11.top[h]
	copy(topQ22[1:], q12.top[1:])
	q22 := solveBlockRec(rule, x2, y2, boundary{top: topQ22, left: q21.left})

	// Stitch the output boundary: bottom row = q21.top ++ q22.top[1:],
	// right column = q12.left ++ q22.left. This concatenation is the Θ(n)
	// "scan" of the (4,2,1) recursion.
	bottom := make([]int, n+1)
	copy(bottom, q21.top)
	copy(bottom[h+1:], q22.top[1:])
	right := make([]int, n)
	copy(right, q12.left)
	copy(right[h:], q22.left)
	return boundary{top: bottom, left: right}
}

func validateRecArgs(x, y string) error {
	if len(x) != len(y) {
		return fmt.Errorf("dp: recursive solver needs equal lengths, got %d and %d", len(x), len(y))
	}
	if len(x) == 0 || len(x)&(len(x)-1) != 0 {
		return fmt.Errorf("dp: recursive solver needs a power-of-two length, got %d", len(x))
	}
	return nil
}

// LCSLengthRecursive computes LCSLength(x, y) with the boundary-passing
// quadrant recursion. It requires equal power-of-two lengths (pad inputs
// with distinct sentinels if needed; sentinels that match nothing leave
// the LCS unchanged).
func LCSLengthRecursive(x, y string) (int, error) {
	if err := validateRecArgs(x, y); err != nil {
		return 0, err
	}
	n := len(x)
	in := boundary{top: make([]int, n+1), left: make([]int, n)}
	out := solveBlockRec(lcsRule, x, y, in)
	return out.top[n], nil
}

// EditDistanceRecursive computes EditDistance(x, y) with the quadrant
// recursion; same length constraints as LCSLengthRecursive.
func EditDistanceRecursive(x, y string) (int, error) {
	if err := validateRecArgs(x, y); err != nil {
		return 0, err
	}
	n := len(x)
	in := boundary{top: make([]int, n+1), left: make([]int, n)}
	for j := 0; j <= n; j++ {
		in.top[j] = j
	}
	for i := 0; i < n; i++ {
		in.left[i] = i + 1
	}
	out := solveBlockRec(editRule, x, y, in)
	return out.top[n], nil
}

// BenchmarkLCSRecursive measures the boundary-passing quadrant LCS on
// 512-character strings.
func BenchmarkLCSRecursive(b *testing.B) {
	src := xrand.New(6)
	x, y := randomString(src, 512, "abcd"), randomString(src, 512, "abcd")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LCSLengthRecursive(x, y); err != nil {
			b.Fatal(err)
		}
	}
}
