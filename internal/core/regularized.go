package core

import (
	"fmt"
	"math"

	"repro/internal/linalg"
	"repro/internal/solver"
)

// regIter and regTol are the iteration budget and relative-change tolerance
// shared by the regularized solvers. The objectives are strongly smooth and
// the problems small (≤ 600 variables), so these are generous.
const (
	regIter = 20000
	regTol  = 1e-9
)

// Bayesian computes the MAP estimate of eq. (7):
//
//	minimize ‖R·s − t‖² + σ⁻²·‖s − prior‖²   subject to s >= 0,
//
// where reg = σ² is the regularization parameter swept in Fig. 13: small
// values trust the prior, large values trust the link measurements. Solved
// with accelerated projected gradient (FISTA).
func Bayesian(in *Instance, prior linalg.Vector, reg float64) (linalg.Vector, error) {
	x, _, err := BayesianWith(in, prior, reg, Opts{})
	return x, err
}

// BayesianWith is Bayesian under explicit Opts (workspace, starting
// iterate — nil starts from the prior — and budget, by default
// regIter/regTol), returning the consumed FISTA iteration count too. The
// MAP objective is strongly convex, so the solution is independent of
// the start; note that FISTA's momentum makes a warm start shorten the
// *distance* to the fixed point without reliably shortening the
// iteration count — streaming re-solves (internal/stream) get their
// warm-start iteration savings from the entropy and fanout solvers, and
// use this entry point for its budget control and telemetry.
func BayesianWith(in *Instance, prior linalg.Vector, reg float64, o Opts) (linalg.Vector, int, error) {
	return regularizedWith("Bayesian", solver.LeastSquaresNonneg, in, prior, reg, o)
}

// regSolver is the signature solver.EntropyRegularized and
// solver.LeastSquaresNonneg share: w weights the penalty on the distance
// to the prior.
type regSolver func(ws *solver.Workspace, a solver.LinOp, b, prior linalg.Vector, w float64, x0 linalg.Vector, maxIter int, tol float64) (linalg.Vector, solver.FISTAResult)

// regularizedWith is the solve behind EntropyWith and BayesianWith: both
// weight the prior penalty by 1/reg against the link loads of in, and
// differ only in the solver.
func regularizedWith(method string, solve regSolver, in *Instance, prior linalg.Vector, reg float64, o Opts) (linalg.Vector, int, error) {
	if reg <= 0 {
		return nil, 0, fmt.Errorf("core: %s needs positive regularization, got %v", method, reg)
	}
	ws, maxIter, tol := o.resolve(regIter, regTol)
	x, res := solve(ws.solverWS(in.Rt.R), in.Rt.R, in.Loads, prior, 1/reg, o.X0, maxIter, tol)
	if !x.AllFinite() {
		return nil, 0, fmt.Errorf("core: %s produced non-finite estimate (%d iters)", method, res.Iterations)
	}
	return x, res.Iterations, nil
}

// BayesianNNLS solves the same MAP problem exactly with Lawson–Hanson NNLS
// on the stacked system [R; σ⁻¹·I]·s = [t; σ⁻¹·prior]. Exponentially more
// expensive than FISTA on large networks; retained as the reference
// implementation for the solver-ablation benchmark.
func BayesianNNLS(in *Instance, prior linalg.Vector, reg float64) (linalg.Vector, error) {
	if reg <= 0 {
		return nil, fmt.Errorf("core: BayesianNNLS needs positive regularization, got %v", reg)
	}
	l, p := in.Rt.R.Rows(), in.Rt.R.Cols()
	w := 1 / math.Sqrt(reg)
	a := linalg.NewMatrix(l+p, p)
	dense := in.Rt.R.ToDense()
	copy(a.Data[:l*p], dense.Data)
	for i := 0; i < p; i++ {
		a.Set(l+i, i, w)
	}
	b := linalg.NewVector(l + p)
	copy(b[:l], in.Loads)
	for i := 0; i < p; i++ {
		b[l+i] = w * prior[i]
	}
	return solver.NNLS(a, b), nil
}

// Entropy computes the entropy-penalized estimate of eq. (6) (Zhang et
// al.'s tomogravity criterion):
//
//	minimize ‖R·s − t‖² + σ⁻²·D(s‖prior)   subject to s >= 0,
//
// with reg = σ² the regularization parameter. Solved by forward–backward
// splitting with an exact per-coordinate KL proximal step.
func Entropy(in *Instance, prior linalg.Vector, reg float64) (linalg.Vector, error) {
	x, _, err := EntropyWith(in, prior, reg, Opts{})
	return x, err
}

// EntropyWith is Entropy under explicit Opts, returning the consumed
// iteration count too. The default budget is regIter/regTol;
// large-backbone evaluations (internal/scenario) trade the last digits of
// convergence for bounded runtime on 10k-demand instances. A nil X0
// starts from the prior. The objective is strictly convex on the prior's
// support, so the fixed point does not depend on the start — only the
// iteration count does: streaming re-solves over a slowly drifting window
// (internal/stream) warm-start each solve from the previous published
// estimate and converge in a fraction of the cold-start iterations.
func EntropyWith(in *Instance, prior linalg.Vector, reg float64, o Opts) (linalg.Vector, int, error) {
	return regularizedWith("Entropy", solver.EntropyRegularized, in, prior, reg, o)
}

// Kruithof adjusts a prior traffic matrix to be consistent with the
// measured ingress and egress totals by classical iterative proportional
// fitting — the 1937 method, which uses only the marginals, not the
// interior links.
func Kruithof(in *Instance, prior linalg.Vector) (linalg.Vector, error) {
	net := in.Rt.Net
	n := net.NumPoPs()
	pm := linalg.NewMatrix(n, n)
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src != dst {
				pm.Set(src, dst, prior[net.PairIndex(src, dst)])
			}
		}
	}
	te := in.IngressTotals()
	tx := in.EgressTotals()
	// Balance the marginal totals (they can disagree slightly when loads
	// come from noisy collection).
	if s := tx.Sum(); s > 0 {
		tx.Scale(te.Sum() / s)
	}
	bal, _, err := solver.KruithofBalance(pm, te, tx, 2000, 1e-10)
	if err != nil {
		return nil, fmt.Errorf("core: Kruithof: %w", err)
	}
	s := linalg.NewVector(net.NumPairs())
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src != dst {
				s[net.PairIndex(src, dst)] = bal.At(src, dst)
			}
		}
	}
	return s, nil
}

// KruithofGeneral applies Krupp's extension of Kruithof's projection to the
// full linear system R·s = t: cyclic multiplicative scaling over every link
// constraint. It minimizes D(s‖prior) over the solution set when the system
// is consistent.
func KruithofGeneral(in *Instance, prior linalg.Vector, maxIter int) (linalg.Vector, solver.IPFResult) {
	return solver.IterativeScaling(in.Rt.R, in.Loads, prior, maxIter, 1e-9)
}
