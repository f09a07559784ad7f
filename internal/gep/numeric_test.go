package gep

// The numeric twins of the traced recursions: the classic triple-loop
// Floyd–Warshall (the reference) and the cache-oblivious I-GEP recursion —
// eight half-size subproblems per level over the matrix octants, with the
// same gepBaseDim cutoff as the emitters. They are test oracles: the tests
// check the recursion against the classic loop.

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/xrand"
)

// Graph is a dense distance matrix: Dist[i][j] is the edge weight from i
// to j, with math.Inf(1) for absent edges and 0 on the diagonal.
type Graph struct {
	n    int
	dist []float64
}

// NewGraph returns an n-vertex graph with no edges (infinite distances,
// zero diagonal).
func NewGraph(n int) (*Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("gep: %d vertices", n)
	}
	g := &Graph{n: n, dist: make([]float64, n*n)}
	inf := math.Inf(1)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				g.dist[i*n+j] = inf
			}
		}
	}
	return g, nil
}

// NewRandomGraph returns an n-vertex graph where each ordered pair gets an
// edge with probability p and uniform weight in [1, 10).
func NewRandomGraph(n int, p float64, src *xrand.Source) (*Graph, error) {
	g, err := NewGraph(n)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && src.Float64() < p {
				g.dist[i*n+j] = 1 + 9*src.Float64()
			}
		}
	}
	return g, nil
}

// Dim returns the number of vertices.
func (g *Graph) Dim() int { return g.n }

// At returns the current distance estimate from i to j.
func (g *Graph) At(i, j int) float64 { return g.dist[i*g.n+j] }

// Set assigns the distance from i to j.
func (g *Graph) Set(i, j int, v float64) { g.dist[i*g.n+j] = v }

// Clone deep-copies the graph.
func (g *Graph) Clone() *Graph {
	c := &Graph{n: g.n, dist: make([]float64, len(g.dist))}
	copy(c.dist, g.dist)
	return c
}

// EqualApprox reports elementwise agreement within eps (Inf == Inf).
func (g *Graph) EqualApprox(o *Graph, eps float64) bool {
	if g.n != o.n {
		return false
	}
	for i := range g.dist {
		a, b := g.dist[i], o.dist[i]
		if math.IsInf(a, 1) && math.IsInf(b, 1) {
			continue
		}
		if math.Abs(a-b) > eps {
			return false
		}
	}
	return true
}

// FloydWarshall runs the classic O(n³) triple loop in place.
func FloydWarshall(g *Graph) {
	n := g.n
	d := g.dist
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			dik := d[i*n+k]
			if math.IsInf(dik, 1) {
				continue
			}
			for j := 0; j < n; j++ {
				if alt := dik + d[k*n+j]; alt < d[i*n+j] {
					d[i*n+j] = alt
				}
			}
		}
	}
}

// gview is a square window into a graph's distance matrix.
type gview struct {
	g    *Graph
	r, c int
	d    int
}

func (v gview) at(i, j int) float64 { return v.g.dist[(v.r+i)*v.g.n+(v.c+j)] }
func (v gview) min(i, j int, x float64) {
	if x < v.g.dist[(v.r+i)*v.g.n+(v.c+j)] {
		v.g.dist[(v.r+i)*v.g.n+(v.c+j)] = x
	}
}

func (v gview) quad(qi, qj int) gview {
	h := v.d / 2
	return gview{g: v.g, r: v.r + qi*h, c: v.c + qj*h, d: h}
}

// FloydWarshallRec runs the cache-oblivious I-GEP recursion in place. The
// vertex count must be a power of two (pad with isolated vertices
// otherwise; they cannot shorten any path).
func FloydWarshallRec(g *Graph) error {
	if g.n&(g.n-1) != 0 {
		return fmt.Errorf("gep: recursive Floyd-Warshall needs power-of-two vertices, got %d", g.n)
	}
	all := gview{g: g, d: g.n}
	fwRec(all, all, all)
	return nil
}

// fwRec computes X[i][j] = min over the k-range shared by U's columns and
// V's rows of X[i][j], U[i][k] + V[k][j], with the Floyd–Warshall
// interleaving that makes the in-place recursion correct (the classical
// 8-call octant schedule: forward over the first half of k, then backward
// over the second).
func fwRec(x, u, v gview) {
	if x.d <= gepBaseDim {
		fwBase(x, u, v)
		return
	}
	x11, x12, x21, x22 := x.quad(0, 0), x.quad(0, 1), x.quad(1, 0), x.quad(1, 1)
	u11, u12, u21, u22 := u.quad(0, 0), u.quad(0, 1), u.quad(1, 0), u.quad(1, 1)
	v11, v12, v21, v22 := v.quad(0, 0), v.quad(0, 1), v.quad(1, 0), v.quad(1, 1)

	fwRec(x11, u11, v11)
	fwRec(x12, u11, v12)
	fwRec(x21, u21, v11)
	fwRec(x22, u21, v12)

	fwRec(x22, u22, v22)
	fwRec(x21, u22, v21)
	fwRec(x12, u12, v22)
	fwRec(x11, u12, v21)
}

// fwBase is the base-case kernel: the k-loop must be outermost for the
// in-place update to be correct.
func fwBase(x, u, v gview) {
	for k := 0; k < x.d; k++ {
		for i := 0; i < x.d; i++ {
			uik := u.at(i, k)
			if math.IsInf(uik, 1) {
				continue
			}
			for j := 0; j < x.d; j++ {
				x.min(i, j, uik+v.at(k, j))
			}
		}
	}
}

// BenchmarkFloydWarshallRec measures the numeric in-place I-GEP recursion
// (128 vertices).
func BenchmarkFloydWarshallRec(b *testing.B) {
	src := xrand.New(4)
	g, err := NewRandomGraph(128, 0.3, src)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		work := g.Clone()
		if err := FloydWarshallRec(work); err != nil {
			b.Fatal(err)
		}
	}
}
