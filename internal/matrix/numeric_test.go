package matrix

// The numeric twins of the traced algorithms: real dense products computed
// by the naive loop, MM-Scan, MM-InPlace and Strassen's recursion, with the
// same quadrant structure and baseDim cutoff as the emitters. They are test
// oracles: the tests check every product against the naive loop.

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/xrand"
)

// Matrix is a dense square matrix in row-major order.
type Matrix struct {
	n    int
	data []float64
}

// New returns an n×n zero matrix.
func New(n int) (*Matrix, error) {
	if n < 1 {
		return nil, fmt.Errorf("matrix: dimension %d < 1", n)
	}
	return &Matrix{n: n, data: make([]float64, n*n)}, nil
}

// MustNew is New for statically valid dimensions.
func MustNew(n int) *Matrix {
	m, err := New(n)
	if err != nil {
		panic(err)
	}
	return m
}

// NewRandom returns an n×n matrix with entries uniform in [-1, 1).
func NewRandom(n int, src *xrand.Source) (*Matrix, error) {
	m, err := New(n)
	if err != nil {
		return nil, err
	}
	for i := range m.data {
		m.data[i] = 2*src.Float64() - 1
	}
	return m, nil
}

// Dim returns the matrix dimension.
func (m *Matrix) Dim() int { return m.n }

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.data[i*m.n+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.data[i*m.n+j] = v }

// Clone deep-copies the matrix.
func (m *Matrix) Clone() *Matrix {
	c := &Matrix{n: m.n, data: make([]float64, len(m.data))}
	copy(c.data, m.data)
	return c
}

// EqualApprox reports whether m and o agree elementwise within eps.
func (m *Matrix) EqualApprox(o *Matrix, eps float64) bool {
	if m.n != o.n {
		return false
	}
	for i := range m.data {
		if math.Abs(m.data[i]-o.data[i]) > eps {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the largest elementwise |m - o| (infinity if the
// dimensions differ).
func (m *Matrix) MaxAbsDiff(o *Matrix) float64 {
	if m.n != o.n {
		return math.Inf(1)
	}
	var d float64
	for i := range m.data {
		if v := math.Abs(m.data[i] - o.data[i]); v > d {
			d = v
		}
	}
	return d
}

// view is an offset window into a matrix: the d×d submatrix whose top-left
// corner is (r, c). Views let the recursive algorithms address quadrants
// without copying.
type view struct {
	m    *Matrix
	r, c int
	d    int
}

func full(m *Matrix) view { return view{m: m, d: m.n} }

func (v view) at(i, j int) float64     { return v.m.data[(v.r+i)*v.m.n+(v.c+j)] }
func (v view) set(i, j int, x float64) { v.m.data[(v.r+i)*v.m.n+(v.c+j)] = x }
func (v view) add(i, j int, x float64) { v.m.data[(v.r+i)*v.m.n+(v.c+j)] += x }

// quad returns quadrant (qi, qj) of v, each in {0, 1}.
func (v view) quad(qi, qj int) view {
	h := v.d / 2
	return view{m: v.m, r: v.r + qi*h, c: v.c + qj*h, d: h}
}

// checkMulArgs validates a multiplication's operands: equal dimensions, and
// for the recursive algorithms a power-of-two dimension.
func checkMulArgs(a, b *Matrix, needPow2 bool) error {
	if a.n != b.n {
		return fmt.Errorf("matrix: dimension mismatch %d vs %d", a.n, b.n)
	}
	if needPow2 && a.n&(a.n-1) != 0 {
		return fmt.Errorf("matrix: recursive multiply needs power-of-two dimension, got %d", a.n)
	}
	return nil
}

// MulNaive computes A·B with the classic triple loop (the reference
// implementation all others are tested against).
func MulNaive(a, b *Matrix) (*Matrix, error) {
	if err := checkMulArgs(a, b, false); err != nil {
		return nil, err
	}
	c := MustNew(a.n)
	n := a.n
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			aik := a.data[i*n+k]
			if aik == 0 {
				continue
			}
			row := b.data[k*n:]
			out := c.data[i*n:]
			for j := 0; j < n; j++ {
				out[j] += aik * row[j]
			}
		}
	}
	return c, nil
}

// MulInPlace computes A·B with the in-place divide-and-conquer algorithm:
// each quadrant of C accumulates its two products directly
// (C_ij += A_ik·B_kj), so no merge scan is needed — the (8,4,0)-regular,
// optimally cache-adaptive variant.
func MulInPlace(a, b *Matrix) (*Matrix, error) {
	if err := checkMulArgs(a, b, true); err != nil {
		return nil, err
	}
	c := MustNew(a.n)
	mulInPlaceRec(full(c), full(a), full(b))
	return c, nil
}

func mulInPlaceRec(c, a, b view) {
	if c.d <= baseDim {
		mulAccumBase(c, a, b)
		return
	}
	for qi := 0; qi < 2; qi++ {
		for qj := 0; qj < 2; qj++ {
			for qk := 0; qk < 2; qk++ {
				mulInPlaceRec(c.quad(qi, qj), a.quad(qi, qk), b.quad(qk, qj))
			}
		}
	}
}

// mulAccumBase performs c += a·b on base-case views.
func mulAccumBase(c, a, b view) {
	for i := 0; i < c.d; i++ {
		for k := 0; k < c.d; k++ {
			aik := a.at(i, k)
			if aik == 0 {
				continue
			}
			for j := 0; j < c.d; j++ {
				c.add(i, j, aik*b.at(k, j))
			}
		}
	}
}

// MulScan computes A·B with MM-Scan: the eight quadrant products are
// computed into fresh temporaries and then merged into C by a linear scan
// (C_ij = T1_ij + T2_ij). The temporaries and the merge make it
// (8,4,1)-regular — optimal in the DAM model but not cache-adaptive.
func MulScan(a, b *Matrix) (*Matrix, error) {
	if err := checkMulArgs(a, b, true); err != nil {
		return nil, err
	}
	c := MustNew(a.n)
	mulScanRec(full(c), full(a), full(b))
	return c, nil
}

func mulScanRec(c, a, b view) {
	if c.d <= baseDim {
		mulAccumBase(c, a, b) // c is zero on entry; accumulate == assign
		return
	}
	// Eight products into two temporary matrices (one per k-term).
	t1 := MustNew(c.d)
	t2 := MustNew(c.d)
	for qi := 0; qi < 2; qi++ {
		for qj := 0; qj < 2; qj++ {
			mulScanRec(full(t1).quad(qi, qj), a.quad(qi, 0), b.quad(0, qj))
			mulScanRec(full(t2).quad(qi, qj), a.quad(qi, 1), b.quad(1, qj))
		}
	}
	// The merge scan: C = T1 + T2.
	for i := 0; i < c.d; i++ {
		for j := 0; j < c.d; j++ {
			c.set(i, j, t1.at(i, j)+t2.at(i, j))
		}
	}
}

func (m *Matrix) at(i, j int) float64 { return m.data[i*m.n+j] }

// MulStrassen computes A·B with Strassen's seven-product recursion.
func MulStrassen(a, b *Matrix) (*Matrix, error) {
	if err := checkMulArgs(a, b, true); err != nil {
		return nil, err
	}
	c := MustNew(a.n)
	mulStrassenRec(full(c), full(a), full(b))
	return c, nil
}

// viewAdd / viewSub materialise u ± v into a fresh matrix.
func viewAdd(u, v view) *Matrix {
	out := MustNew(u.d)
	for i := 0; i < u.d; i++ {
		for j := 0; j < u.d; j++ {
			out.Set(i, j, u.at(i, j)+v.at(i, j))
		}
	}
	return out
}

func viewSub(u, v view) *Matrix {
	out := MustNew(u.d)
	for i := 0; i < u.d; i++ {
		for j := 0; j < u.d; j++ {
			out.Set(i, j, u.at(i, j)-v.at(i, j))
		}
	}
	return out
}

func viewCopy(u view) *Matrix {
	out := MustNew(u.d)
	for i := 0; i < u.d; i++ {
		for j := 0; j < u.d; j++ {
			out.Set(i, j, u.at(i, j))
		}
	}
	return out
}

func mulStrassenRec(c, a, b view) {
	if c.d <= baseDim {
		mulAccumBase(c, a, b)
		return
	}
	a11, a12, a21, a22 := a.quad(0, 0), a.quad(0, 1), a.quad(1, 0), a.quad(1, 1)
	b11, b12, b21, b22 := b.quad(0, 0), b.quad(0, 1), b.quad(1, 0), b.quad(1, 1)

	m1 := strassenProduct(viewAdd(a11, a22), viewAdd(b11, b22))
	m2 := strassenProduct(viewAdd(a21, a22), viewCopy(b11))
	m3 := strassenProduct(viewCopy(a11), viewSub(b12, b22))
	m4 := strassenProduct(viewCopy(a22), viewSub(b21, b11))
	m5 := strassenProduct(viewAdd(a11, a12), viewCopy(b22))
	m6 := strassenProduct(viewSub(a21, a11), viewAdd(b11, b12))
	m7 := strassenProduct(viewSub(a12, a22), viewAdd(b21, b22))

	h := c.d / 2
	for i := 0; i < h; i++ {
		for j := 0; j < h; j++ {
			c.set(i, j, m1.At(i, j)+m4.At(i, j)-m5.At(i, j)+m7.At(i, j))
			c.set(i, j+h, m3.At(i, j)+m5.At(i, j))
			c.set(i+h, j, m2.At(i, j)+m4.At(i, j))
			c.set(i+h, j+h, m1.At(i, j)-m2.At(i, j)+m3.At(i, j)+m6.At(i, j))
		}
	}
}

func strassenProduct(x, y *Matrix) *Matrix {
	out := MustNew(x.n)
	mulStrassenRec(full(out), full(x), full(y))
	return out
}

// BenchmarkMulScan measures the numeric MM-Scan multiply (128×128).
func BenchmarkMulScan(b *testing.B) {
	x, y := benchPair(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MulScan(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMulInPlace measures the numeric MM-InPlace multiply (128×128).
func BenchmarkMulInPlace(b *testing.B) {
	x, y := benchPair(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MulInPlace(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func benchPair(b *testing.B) (*Matrix, *Matrix) {
	src := xrand.New(3)
	x, err := NewRandom(128, src)
	if err != nil {
		b.Fatal(err)
	}
	y, err := NewRandom(128, src)
	if err != nil {
		b.Fatal(err)
	}
	return x, y
}
