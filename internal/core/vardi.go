package core

import (
	"fmt"
	"math"

	"repro/internal/linalg"
	"repro/internal/solver"
	"repro/internal/stats"
	"repro/internal/topology"
)

// VardiConfig tunes Vardi's second-moment estimator (§4.2.2). The solver
// budget lives in Opts (default vardiIter/vardiTol).
type VardiConfig struct {
	// SigmaInv2 is σ⁻² ∈ [0, 1]: the weight on the covariance moment-
	// matching conditions relative to the first moments. 1 expresses full
	// faith in the Poisson assumption; 0 ignores second moments entirely.
	SigmaInv2 float64
}

// DefaultVardiConfig mirrors the paper's Table 1 setting σ⁻² = 0.01.
func DefaultVardiConfig() VardiConfig {
	return VardiConfig{SigmaInv2: 0.01}
}

// vardiIter and vardiTol are Vardi's default solver budget, adequate for
// the American network.
const (
	vardiIter = 30000
	vardiTol  = 1e-9
)

// Vardi estimates the mean traffic matrix λ from a time series of link-load
// vectors by moment matching under the Poisson assumption: it solves
//
//	minimize ‖R·λ − t̂‖² + σ⁻²·‖R·diag(λ)·Rᵀ − Σ̂‖²   s.t. λ >= 0
//
// where t̂ and Σ̂ are the sample mean and covariance of the loads. The
// covariance conditions contribute one linear equation per unordered link
// pair (momentRows); the stacked system is solved as a sparse
// non-negative least-squares problem. Following the paper (after [22]) a
// least-squares fit replaces Vardi's original EM on Kullback–Leibler
// moment distances, because sample moments may be negative.
func Vardi(rt *topology.Routing, loads []linalg.Vector, cfg VardiConfig) (linalg.Vector, error) {
	lam, _, err := VardiWith(rt, loads, cfg, Opts{})
	return lam, err
}

// VardiWith is Vardi under explicit Opts, returning the solver iteration
// count too. A nil X0 keeps the neutral uniform spread; the moment system
// is solved to a unique least-norm fixed point regardless of the start,
// and a warm start from the previous window's estimate (internal/stream)
// cuts the iteration count on slowly drifting demand. The moment assembly
// (transpose traversal, row indexing, stacked system, operator norm) is
// served from the workspace's SolveCache and the sample moments,
// right-hand side and solver buffers are drawn from the workspace; only
// the returned estimate is freshly allocated.
func VardiWith(rt *topology.Routing, loads []linalg.Vector, cfg VardiConfig, o Opts) (linalg.Vector, int, error) {
	if len(loads) < 2 {
		return nil, 0, fmt.Errorf("core: Vardi needs a time series, got %d samples", len(loads))
	}
	l := rt.R.Rows()
	p := rt.R.Cols()
	for i, t := range loads {
		if len(t) != l {
			return nil, 0, fmt.Errorf("core: Vardi sample %d has %d loads, want %d", i, len(t), l)
		}
	}
	x0 := o.X0
	if x0 != nil && len(x0) != p {
		return nil, 0, fmt.Errorf("core: Vardi warm start has %d demands, want %d", len(x0), p)
	}
	ws, maxIter, tol := o.resolve(vardiIter, vardiTol)
	tHat := stats.MeanVectorInto(vbuf(&ws.tHat, l), loads)
	if ws.cov == nil || ws.cov.Rows != l || ws.cov.Cols != l {
		ws.cov = linalg.NewMatrix(l, l)
	}
	cov := stats.CovarianceMatrixInto(ws.cov, vbuf(&ws.covMean, l), vbuf(&ws.covD, l), loads)

	w := 0.0
	if cfg.SigmaInv2 > 0 {
		w = math.Sqrt(cfg.SigmaInv2)
	}
	asm := ws.cache.vardiFor(rt.R, w)
	rhs := vbuf(&ws.rhs, l+len(asm.keys))
	copy(rhs[:l], tHat)
	for row, key := range asm.keys {
		rhs[l+row] = w * cov.At(key[0], key[1])
	}
	if x0 == nil {
		// Neutral start: total traffic spread uniformly over the demands.
		x0 = vbuf(&ws.x0, p)
		x0.Fill(tHat.Sum() / float64(l) / float64(p) * float64(l))
	}
	ws.sw.Prime(asm.stacked, asm.normSq)
	lam, res := solver.LeastSquaresNonneg(&ws.sw, asm.stacked, rhs, nil, 0, x0, maxIter, tol)
	if !lam.AllFinite() {
		return nil, 0, fmt.Errorf("core: Vardi produced non-finite estimate (%d iters)", res.Iterations)
	}
	return lam, res.Iterations, nil
}
