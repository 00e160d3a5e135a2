package solver

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/linalg"
	"repro/internal/matrix"
	"repro/internal/vec"
)

// Level is one entry of the approximate inverse chain: the Laplacian
// M_i = D_i − A_i, stored as the CSR Laplacian plus its diagonal (the
// adjacency action is recovered as A·x = D·x − L·x).
type Level struct {
	G       *graph.Graph
	L       *matrix.CSR
	InvDiag []float64
	// Sigma is the estimated second singular value of D^-½A D^-½ at
	// this level — the contraction factor the next two-step squares.
	Sigma float64
}

// Chain is a Peng–Spielman approximate inverse chain
// {M_1, M_2, ..., M_d}. Applying the chain is the parallel O(d·log n)
// depth operation of Theorem 4.5 of Peng–Spielman; here it serves as a
// fixed SPD preconditioner for CG (Theorem 6's solver).
type Chain struct {
	Levels []*Level
	// TotalNNZ is the summed non-zero count of every level, the measure
	// Theorem 6's work bound is stated in.
	TotalNNZ int
	// Stats from construction.
	BuildStats []LevelStats
}

// LevelStats records what chain construction did at one level.
type LevelStats struct {
	N            int
	EdgesIn      int
	EdgesTwoStep int
	EdgesOut     int
	Sigma        float64
	Sparsified   bool
}

// ChainOptions controls chain construction.
type ChainOptions struct {
	// MaxDepth caps the chain length. Default 40.
	MaxDepth int
	// SigmaStop terminates the chain once the off-diagonal contraction
	// σ₂ drops below it (M_i is then nearly diagonal and Jacobi closes
	// the gap). Default 0.5.
	SigmaStop float64
	// Eps is the per-level sparsifier accuracy (the paper sets
	// 1/O(log κ); practical default 0.3).
	Eps float64
	// GrowthCap: sparsify a level back whenever its two-step graph has
	// more than GrowthCap times the edges of the previous level.
	// Default 1.0 (always bring it back to the previous size, the
	// paper's "bring the graph back to its original size" rule).
	GrowthCap float64
	// LevelBundleT fixes the bundle thickness used by the per-level
	// sparsifier (default 2). The ε-driven formula t = Θ(log²n/ε²)
	// saturates every level at laptop scale (no reduction at all); a
	// fixed thin bundle keeps levels shrinking, and the outer PCG
	// absorbs the extra per-level error in iterations — the practical
	// counterpart of the paper's ε = 1/O(log κ) rule.
	LevelBundleT int
	// TwoStep options.
	TwoStep TwoStepOptions
	Seed    uint64
	// SparsifyCfg overrides the sparsifier configuration (zero value →
	// core.DefaultConfig(Seed) with LevelBundleT).
	SparsifyCfg *core.Config
}

func (o ChainOptions) withDefaults() ChainOptions {
	if o.MaxDepth <= 0 {
		o.MaxDepth = 40
	}
	if o.SigmaStop <= 0 {
		o.SigmaStop = 0.5
	}
	if o.Eps <= 0 {
		o.Eps = 0.3
	}
	if o.GrowthCap <= 0 {
		o.GrowthCap = 1.0
	}
	if o.LevelBundleT <= 0 {
		o.LevelBundleT = 2
	}
	return o
}

// ErrEmptyGraph is returned for graphs with no edges.
var ErrEmptyGraph = errors.New("solver: cannot build chain for empty graph")

// BuildChain constructs the approximate inverse chain of g.
func BuildChain(g *graph.Graph, opt ChainOptions) (*Chain, error) {
	opt = opt.withDefaults()
	if len(g.Edges) == 0 {
		return nil, ErrEmptyGraph
	}
	cur := g.Canonical()
	chain := &Chain{}
	for depth := 0; depth < opt.MaxDepth; depth++ {
		lvl := newLevel(cur)
		chain.Levels = append(chain.Levels, lvl)
		chain.TotalNNZ += lvl.L.NNZ()
		stats := LevelStats{N: cur.N, EdgesIn: len(cur.Edges), Sigma: lvl.Sigma}
		if lvl.Sigma <= opt.SigmaStop {
			chain.BuildStats = append(chain.BuildStats, stats)
			break
		}
		next := TwoStep(cur, TwoStepOptions{
			ExactDegree:  opt.TwoStep.ExactDegree,
			SampleFactor: opt.TwoStep.SampleFactor,
			Seed:         opt.Seed ^ uint64(depth)*0x9e3779b97f4a7c15,
		})
		stats.EdgesTwoStep = len(next.Edges)
		// Sparsify back whenever the two-step graph outgrew the cap.
		limit := int(opt.GrowthCap * float64(len(cur.Edges)))
		if limit < cur.N {
			limit = cur.N
		}
		if len(next.Edges) > limit {
			rho := float64(len(next.Edges)) / float64(limit)
			cfg := core.DefaultConfig(opt.Seed ^ uint64(depth+1)*0xd1342543de82ef95)
			cfg.BundleT = opt.LevelBundleT
			if opt.SparsifyCfg != nil {
				cfg = *opt.SparsifyCfg
				cfg.Seed ^= uint64(depth+1) * 0xd1342543de82ef95
			}
			sp, _, err := core.ParallelSparsify(next, opt.Eps, rho, cfg)
			if err != nil {
				// A failed level sparsification must not poison the
				// hierarchy: surface it instead of building on the
				// unsparsified (or partial) level.
				return nil, fmt.Errorf("solver: chain level %d: %w", depth, err)
			}
			// The sample rounds always keep a full spanner of the graph
			// they see, so every component of next stays connected in sp
			// — no connectivity guard needed (two-step graphs of
			// bipartite inputs are legitimately disconnected).
			next = sp.Canonical()
			stats.Sparsified = true
		}
		stats.EdgesOut = len(next.Edges)
		chain.BuildStats = append(chain.BuildStats, stats)
		cur = next
	}
	return chain, nil
}

// newLevel assembles the CSR Laplacian and diagnostics for a level.
func newLevel(g *graph.Graph) *Level {
	l := matrix.Laplacian(g)
	inv := make([]float64, g.N)
	for i, d := range l.Diag {
		if d > 0 {
			inv[i] = 1 / d
		}
	}
	return &Level{G: g, L: l, InvDiag: inv, Sigma: estimateSigma2(g, l, inv)}
}

// estimateSigma2 estimates the second-largest singular value of
// S = D^-½ A D^-½ by power iteration with the Perron vectors deflated.
// σ₂ < 1 measures how far M = D−A is from singular beyond its null
// space; the two-step reduction squares it.
//
// S has one unit eigenvalue per connected component (D^½·1 restricted
// to the component) — and two-step graphs of bipartite inputs are
// disconnected, so deflating only the global D^½·1 would leave a
// spurious σ = 1 and the chain would never detect convergence. The
// deflation basis is therefore per-component.
func estimateSigma2(g *graph.Graph, l *matrix.CSR, invDiag []float64) float64 {
	n := l.N
	if n == 1 {
		return 0
	}
	labels, count := graph.Components(g, nil)
	// Per-component Perron vectors D^½·1_C, orthonormal by disjoint
	// support after normalization. A component with no positive-degree
	// vertex (a degree-0 singleton) would get the zero vector, which
	// never enters the basis, so it gets no vector at all: one length-n
	// vector per component is Θ(n·count) work and bytes.
	perComp := make([][]float64, count)
	for i := 0; i < n; i++ {
		if invDiag[i] > 0 {
			c := labels[i]
			if perComp[c] == nil {
				perComp[c] = make([]float64, n)
			}
			perComp[c][i] = math.Sqrt(1 / invDiag[i])
		}
	}
	var basis [][]float64
	for _, v := range perComp {
		if v == nil {
			continue
		}
		if nrm := vec.Norm2(v); nrm > 0 {
			vec.Scale(1/nrm, v)
			basis = append(basis, v)
		}
	}
	if len(basis) == 0 {
		return 0
	}
	// Deterministic pseudo-random start.
	x := make([]float64, n)
	state := uint64(0x9e3779b97f4a7c15)
	for i := range x {
		state = state*6364136223846793005 + 1442695040888963407
		x[i] = float64(int64(state>>11))/(1<<52) - 1
	}
	deflate := func(v []float64) {
		for _, q := range basis {
			d := vec.Dot(v, q)
			vec.Axpy(-d, q, v)
		}
	}
	deflate(x)
	if nx := vec.Norm2(x); nx > 0 {
		vec.Scale(1/nx, x)
	}
	tmp := make([]float64, n)
	y := make([]float64, n)
	sigma := 0.0
	for iter := 0; iter < 60; iter++ {
		// y = S x = D^-½ (D − L) D^-½ x, applied in parts. Apply twice
		// (SᵀS = S² since S symmetric) to get |λ|₂ including negatives.
		applyS(l, invDiag, tmp, x, y)
		deflate(y)
		applyS(l, invDiag, tmp, y, x)
		deflate(x)
		nx := vec.Norm2(x)
		if nx == 0 {
			return 0
		}
		newSigma := math.Sqrt(nx)
		vec.Scale(1/nx, x)
		if iter > 4 && math.Abs(newSigma-sigma) < 1e-3*newSigma {
			sigma = newSigma
			break
		}
		sigma = newSigma
	}
	if sigma > 1 {
		sigma = 1
	}
	return sigma
}

// applyS computes dst = D^-½ A D^-½ x with A·v = D·v − L·v.
func applyS(l *matrix.CSR, invDiag []float64, tmp, x, dst []float64) {
	n := l.N
	for i := 0; i < n; i++ {
		tmp[i] = x[i] * math.Sqrt(invDiag[i])
	}
	l.MulVec(dst, tmp)
	for i := 0; i < n; i++ {
		av := l.Diag[i]*tmp[i] - dst[i]
		dst[i] = av * math.Sqrt(invDiag[i])
	}
}

// Apply runs one pass of the Peng–Spielman recursion
//
//	M⁻¹ ≈ ½·[D⁻¹ + (I + D⁻¹A)·M̃⁺·(I + A·D⁻¹)]
//
// down the chain, with a Jacobi solve at the bottom level. The result
// is a fixed SPD linear operator approximating L⁺, suitable as a CG
// preconditioner.
func (c *Chain) Apply(dst, b []float64) {
	c.applyLevel(0, dst, b)
}

func (c *Chain) applyLevel(i int, dst, b []float64) {
	lvl := c.Levels[i]
	n := len(b)
	if i == len(c.Levels)-1 {
		// Bottom: M_d is nearly diagonal; Jacobi is the paper's
		// "essentially the identity" base case.
		for j := 0; j < n; j++ {
			dst[j] = b[j] * lvl.InvDiag[j]
		}
		return
	}
	// u = (I + A·D⁻¹)·b
	u := make([]float64, n)
	t := make([]float64, n)
	for j := 0; j < n; j++ {
		t[j] = b[j] * lvl.InvDiag[j]
	}
	lvl.L.MulVec(u, t) // u = L·D⁻¹·b
	for j := 0; j < n; j++ {
		// A·D⁻¹·b = D·D⁻¹·b − L·D⁻¹·b = b − u
		u[j] = b[j] + (b[j] - u[j])
	}
	v := make([]float64, n)
	c.applyLevel(i+1, v, u)
	// w = (I + D⁻¹A)·v = v + D⁻¹(D·v − L·v) = 2v − D⁻¹·L·v
	lvl.L.MulVec(t, v)
	for j := 0; j < n; j++ {
		w := 2*v[j] - lvl.InvDiag[j]*t[j]
		dst[j] = 0.5 * (b[j]*lvl.InvDiag[j] + w)
	}
}

// Precondition implements linalg.Preconditioner.
func (c *Chain) Precondition(dst, r []float64) { c.Apply(dst, r) }

// Depth returns the chain length d.
func (c *Chain) Depth() int { return len(c.Levels) }

// String summarizes the chain.
func (c *Chain) String() string {
	return fmt.Sprintf("chain{depth=%d nnz=%d}", len(c.Levels), c.TotalNNZ)
}

// SolveResult reports a linear solve.
type SolveResult struct {
	Iterations int
	Residual   float64
	Converged  bool
	ChainDepth int
	ChainNNZ   int
}

// SolveLaplacian solves L_g·x = b (b must be ⊥ 1; it is projected if
// not) to relative residual tol using chain-preconditioned CG, building
// the chain with opt. It returns the solution and solve statistics.
func SolveLaplacian(g *graph.Graph, b []float64, tol float64, opt ChainOptions) ([]float64, SolveResult, error) {
	chain, err := BuildChain(g, opt)
	if err != nil {
		return nil, SolveResult{}, err
	}
	l := matrix.Laplacian(g)
	x := make([]float64, g.N)
	res, err := linalg.CG(linalg.CSROp{M: l}, b, x, linalg.CGOptions{
		Tol: tol, ProjectOnes: true, Prec: chain,
		MaxIter: 20*g.N + 200,
	})
	sr := SolveResult{
		Iterations: res.Iterations,
		Residual:   res.Residual,
		Converged:  res.Converged,
		ChainDepth: chain.Depth(),
		ChainNNZ:   chain.TotalNNZ,
	}
	return x, sr, err
}
