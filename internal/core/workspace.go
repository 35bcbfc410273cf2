package core

import (
	"sync"

	"repro/internal/linalg"
	"repro/internal/solver"
	"repro/internal/sparse"
	"repro/internal/topology"
)

// SolveCache shares the expensive routing-matrix-derived artifacts of the
// estimation methods across solves and across engines: the power-iteration
// operator norm ‖R‖₂² and Vardi's second-moment assembly (transpose
// traversal, moment-row indexing, stacked system). Entries are keyed by
// matrix *equality*, not pointer identity, so tenants built from the same
// scenario (the fleet's common case) share one entry even though each holds
// its own *sparse.Matrix.
//
// A SolveCache is safe for concurrent use. Cached matrices are only ever
// read after construction, so sharing them between concurrently solving
// tenants is safe. Every cached float is computed by the same
// deterministic code whichever workspace first asks for it, so serving a
// value from the cache never changes a solver's output bits.
type SolveCache struct {
	mu  sync.Mutex
	ops []*cachedOp
	// sw pools the power-iteration scratch for the cache's own norm
	// computations (guarded by mu, like everything else here).
	sw solver.Workspace
}

// cachedOp is everything derived from one distinct routing matrix.
type cachedOp struct {
	canon   *sparse.Matrix   // first matrix seen with these contents
	aliases []*sparse.Matrix // other pointers known equal to canon
	normSq  float64          // ‖canon‖₂²
	hasNorm bool
	vardi   map[float64]*vardiAssembly // keyed by the moment weight w
}

// vardiAssembly is the per-(matrix, weight) part of Vardi's moment system:
// everything except the right-hand side, which depends on the window's
// sample moments and is rebuilt per solve.
type vardiAssembly struct {
	keys    [][2]int       // stacked row -> unordered link pair, first-use order
	stacked *sparse.Matrix // [R; w·second], the solve operator
	normSq  float64        // ‖stacked‖₂²
}

// NewSolveCache returns an empty cache.
func NewSolveCache() *SolveCache {
	return &SolveCache{}
}

// lookup returns the cache entry for m, creating one if m's contents have
// not been seen. Caller must hold c.mu. The scan is linear over distinct
// matrices with a pointer fast path over known aliases — fleets hold a
// handful of topologies but hundreds of tenant pointers.
func (c *SolveCache) lookup(m *sparse.Matrix) *cachedOp {
	for _, op := range c.ops {
		if op.canon == m {
			return op
		}
		for _, a := range op.aliases {
			if a == m {
				return op
			}
		}
	}
	for _, op := range c.ops {
		if op.canon.Equal(m) {
			op.aliases = append(op.aliases, m)
			return op
		}
	}
	op := &cachedOp{canon: m}
	c.ops = append(c.ops, op)
	return op
}

// Canonical returns the representative matrix pointer for m's contents:
// the first Equal matrix the cache saw. Tenants sharing a topology map to
// the same pointer, which is what the fleet's same-topology batching keys
// on.
func (c *SolveCache) Canonical(m *sparse.Matrix) *sparse.Matrix {
	if c == nil || m == nil {
		return m
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lookup(m).canon
}

// OpNormSq returns ‖m‖₂² as solver.OperatorNormSq computes it, running the
// power method once per distinct matrix contents. Equal matrices produce
// bit-identical power iterations, so serving the canonical matrix's norm
// for an alias returns exactly the float the alias's own power method
// would have.
func (c *SolveCache) OpNormSq(m *sparse.Matrix) float64 {
	if c == nil {
		return solver.OperatorNormSq(m)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	op := c.lookup(m)
	if !op.hasNorm {
		op.normSq = c.sw.OperatorNormSq(op.canon)
		op.hasNorm = true
	}
	return op.normSq
}

// vardiFor returns the cached moment assembly for (m, w), building it on
// first use.
func (c *SolveCache) vardiFor(m *sparse.Matrix, w float64) *vardiAssembly {
	c.mu.Lock()
	defer c.mu.Unlock()
	op := c.lookup(m)
	if asm, ok := op.vardi[w]; ok {
		return asm
	}
	asm := buildVardiAssembly(&c.sw, op.canon, w)
	if op.vardi == nil {
		op.vardi = make(map[float64]*vardiAssembly, 1)
	}
	op.vardi[w] = asm
	return asm
}

// buildVardiAssembly assembles the window-independent part of Vardi's
// stacked moment system for routing matrix r and weight w: the
// second-moment rows of momentRows, scaled by w and stacked under r.
func buildVardiAssembly(sw *solver.Workspace, r *sparse.Matrix, w float64) *vardiAssembly {
	keys, entries := momentRows(r)
	b := sparse.NewBuilder(len(keys), r.Cols())
	b.Grow(len(entries))
	for _, e := range entries {
		b.Add(e.row, e.pair, e.coeff)
	}
	stacked := sparse.VStack(r, b.Build().Scale(w))
	return &vardiAssembly{
		keys:    keys,
		stacked: stacked,
		normSq:  sw.OperatorNormSq(stacked),
	}
}

// momentEntry is one coefficient R_ip·R_jp of a second-moment row: row
// indexes the unordered link pair (i, j), pair the demand crossing both.
type momentEntry struct {
	row, pair int
	coeff     float64
}

// momentRows enumerates the second-moment conditions shared by Vardi and
// Cao: for each unordered link pair (i <= j) the model says
// Σ_p R_ip·R_jp·v_p = Σ̂_ij, where v_p is the demand's variance. A demand
// contributes to row (i, j) only if its path crosses both links, so the
// rows come from per-demand link sets read off the transposed routing
// matrix in O(nnz) rather than by an O(L·P) dense scan, which keeps
// assembly sub-second at 100+ PoPs. The transpose also carries the entry
// values, so fractional (ECMP) routing matrices get their correct
// R_ip·R_jp coefficients; on 0/1 single-path matrices the products are
// exactly 1. Rows are numbered in first-use order and keys[row] is the
// row's link pair.
func momentRows(r *sparse.Matrix) (keys [][2]int, entries []momentEntry) {
	p := r.Cols()
	rT := r.T() // p×l: row pair -> (link, fraction) in ascending link order
	total := 0
	for pair := 0; pair < p; pair++ {
		k := rT.RowNNZ(pair)
		total += k * (k + 1) / 2
	}
	momentRow := make(map[[2]int]int, total/4)
	entries = make([]momentEntry, 0, total)
	var links []int
	var vals []float64
	for pair := 0; pair < p; pair++ {
		links = links[:0]
		vals = vals[:0]
		rT.Row(pair, func(c int, v float64) {
			links = append(links, c)
			vals = append(vals, v)
		})
		for a := 0; a < len(links); a++ {
			for c := a; c < len(links); c++ {
				key := [2]int{links[a], links[c]}
				row, ok := momentRow[key]
				if !ok {
					row = len(keys)
					momentRow[key] = row
					keys = append(keys, key)
				}
				entries = append(entries, momentEntry{row, pair, vals[a] * vals[c]})
			}
		}
	}
	return keys, entries
}

// Workspace bundles the per-engine scratch state of the estimation
// methods: the solver-level buffers (gradients, residuals, momentum
// iterates) plus the method-level staging vectors (sample moments, moment
// right-hand sides, fanout scalings, simplex-projection scratch) and a
// handle on a SolveCache for the matrix-derived artifacts.
//
// Like solver.Workspace, a core Workspace serves one solving goroutine at
// a time; the streaming engine owns one per engine and reuses it across
// its periodic re-solves, which is what makes the steady-state resolve
// loop allocation-free. Pass one through Opts.WS; a nil Opts.WS solves on
// a fresh private workspace. A workspace only changes where scratch
// lives, never the arithmetic, so the output bits are the same with a
// fresh, a reused or a cache-sharing workspace.
type Workspace struct {
	sw    solver.Workspace
	cache *SolveCache

	te, tx linalg.Vector // marginal-total scratch
	prior  linalg.Vector // GravityWS output buffer
	share  []float64     // ShareThreshold sorting scratch

	// Vardi staging: sample moments and the stacked right-hand side.
	tHat    linalg.Vector
	cov     *linalg.Matrix
	covMean linalg.Vector
	covD    linalg.Vector
	rhs     linalg.Vector
	x0      linalg.Vector

	// Fanout staging.
	scales         []linalg.Vector
	groups         [][]int
	groupsFor      *topology.Network
	scaled         linalg.Vector
	resid          linalg.Vector
	back           linalg.Vector
	groupTmp       []float64
	simplexScratch []float64
}

// NewWorkspace returns a workspace backed by the given SolveCache; a nil
// cache gets a private one, so a standalone engine still amortizes its
// power iterations and Vardi assemblies across re-solves.
func NewWorkspace(cache *SolveCache) *Workspace {
	if cache == nil {
		cache = NewSolveCache()
	}
	return &Workspace{cache: cache}
}

// Cache returns the workspace's SolveCache.
func (ws *Workspace) Cache() *SolveCache {
	if ws == nil {
		return nil
	}
	return ws.cache
}

// Opts carries the per-call options of the iterative estimators
// (EntropyWith, BayesianWith, VardiWith, EstimateFanoutsWith). A zero
// field keeps the method's default.
type Opts struct {
	// WS supplies the scratch buffers and the SolveCache; nil solves on a
	// fresh private workspace.
	WS *Workspace
	// X0 is the starting iterate — the fanout iterate for
	// EstimateFanoutsWith. Nil keeps the method's cold start. The
	// objectives are convex, so the start changes the iteration count,
	// not the fixed point.
	X0 linalg.Vector
	// MaxIter caps the solver iterations and Tol is the relative-change
	// stopping tolerance; zero (or negative) keeps the method's default.
	MaxIter int
	Tol     float64
}

// resolve returns the workspace to solve on (a fresh private one for a
// nil WS) and the budget, with maxIter and tol filling unset fields.
func (o Opts) resolve(maxIter int, tol float64) (*Workspace, int, float64) {
	ws := o.WS
	if ws == nil {
		ws = NewWorkspace(nil)
	}
	if o.MaxIter > 0 {
		maxIter = o.MaxIter
	}
	if o.Tol > 0 {
		tol = o.Tol
	}
	return ws, maxIter, tol
}

// solverWS returns the embedded solver workspace primed so that solving
// against op skips the power method.
func (ws *Workspace) solverWS(op *sparse.Matrix) *solver.Workspace {
	ws.sw.Prime(op, ws.cache.OpNormSq(op))
	return &ws.sw
}

// vbuf returns *p resized to n, reusing its backing array when possible.
func vbuf(p *linalg.Vector, n int) linalg.Vector {
	if cap(*p) >= n {
		*p = (*p)[:n]
	} else {
		*p = linalg.NewVector(n)
	}
	return *p
}

// fbuf is vbuf for plain float slices.
func fbuf(p *[]float64, n int) []float64 {
	if cap(*p) >= n {
		*p = (*p)[:n]
	} else {
		*p = make([]float64, n)
	}
	return *p
}

// GravityWS computes the gravity prior like Gravity, drawing the marginal
// totals AND the returned vector from workspace scratch: the result is
// overwritten by the next GravityWS call on the same workspace, so a
// caller that publishes or otherwise retains the prior beyond one solve
// must Clone it (the regularized solvers only read the prior during the
// solve, which is the intended use). Nil ws is exactly Gravity.
func GravityWS(ws *Workspace, in *Instance) linalg.Vector {
	if ws == nil {
		return Gravity(in)
	}
	n := in.Rt.Net.NumPoPs()
	te, tx := vbuf(&ws.te, n), vbuf(&ws.tx, n)
	for pop := 0; pop < n; pop++ {
		te[pop] = in.Loads[in.Rt.IngressRow(pop)]
		tx[pop] = in.Loads[in.Rt.EgressRow(pop)]
	}
	return GravityFromTotals(vbuf(&ws.prior, in.NumPairs()), in.Rt.Net, te, tx, nil)
}
