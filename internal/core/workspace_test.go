// Workspace contract tests: a workspace only changes where scratch lives,
// never the arithmetic. Every estimator that accepts one must return the
// same output bits and the same iteration count as its plain form,
// whether the workspace is fresh, reused after a solve on a differently
// sized network, or shares its SolveCache with another workspace.
package core_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/linalg"
	"repro/internal/netsim"
)

// wsProblem is one estimation problem: a busy window of link loads and
// its mean-load instance with the gravity prior.
type wsProblem struct {
	sc    *netsim.Scenario
	loads []linalg.Vector
	in    *core.Instance
	prior linalg.Vector
}

func newWSProblem(t *testing.T, build func(seed int64) (*netsim.Scenario, error)) wsProblem {
	t.Helper()
	sc, err := build(1)
	if err != nil {
		t.Fatal(err)
	}
	const k = 6
	loads := sc.LoadSeries(sc.BusyWindow(k), k)
	mean := linalg.NewVector(len(loads[0]))
	for _, l := range loads {
		linalg.Axpy(1, l, mean)
	}
	mean.Scale(1 / float64(k))
	in, err := core.NewInstance(sc.Rt, mean)
	if err != nil {
		t.Fatal(err)
	}
	return wsProblem{sc: sc, loads: loads, in: in, prior: core.Gravity(in)}
}

// wsMethods runs each workspace-aware entry point; a nil ws must be the
// plain form. The budgets are short so the test stays fast: equality of
// the iteration counts is what matters, not convergence.
var wsMethods = []struct {
	name string
	run  func(ws *core.Workspace, p wsProblem) (linalg.Vector, int, error)
}{
	{"Entropy", func(ws *core.Workspace, p wsProblem) (linalg.Vector, int, error) {
		return core.EntropyWith(p.in, p.prior, 1000, core.Opts{WS: ws, MaxIter: 1500, Tol: 1e-7})
	}},
	{"Bayesian", func(ws *core.Workspace, p wsProblem) (linalg.Vector, int, error) {
		return core.BayesianWith(p.in, p.prior, 1000, core.Opts{WS: ws, MaxIter: 1500, Tol: 1e-7})
	}},
	{"Vardi", func(ws *core.Workspace, p wsProblem) (linalg.Vector, int, error) {
		return core.VardiWith(p.sc.Rt, p.loads, core.DefaultVardiConfig(), core.Opts{WS: ws, MaxIter: 1500, Tol: 1e-7})
	}},
	{"EstimateFanouts", func(ws *core.Workspace, p wsProblem) (linalg.Vector, int, error) {
		fe, err := core.EstimateFanoutsWith(p.sc.Rt, p.loads, core.FanoutConfig{}, core.Opts{WS: ws, MaxIter: 1500, Tol: 1e-7})
		if err != nil {
			return nil, 0, err
		}
		return append(fe.Alpha.Clone(), fe.MeanDemand...), fe.Iterations, nil
	}},
	{"ShareThreshold", func(ws *core.Workspace, p wsProblem) (linalg.Vector, int, error) {
		if ws == nil {
			return linalg.Vector{core.ShareThreshold(p.in.Loads, 0.9)}, 0, nil
		}
		return linalg.Vector{ws.ShareThreshold(p.in.Loads, 0.9)}, 0, nil
	}},
}

// TestWorkspaceContract checks bit-identical output and equal iteration
// counts across the plain form, a fresh workspace, a workspace reused
// after a solve on the larger American network, and two workspaces
// sharing one SolveCache over equal but distinct routing matrices.
func TestWorkspaceContract(t *testing.T) {
	eu := newWSProblem(t, netsim.BuildEurope)
	euTwin := newWSProblem(t, netsim.BuildEurope)
	us := newWSProblem(t, netsim.BuildAmerica)
	if eu.sc.Rt.R == euTwin.sc.Rt.R {
		t.Fatal("twin scenario shares its routing matrix; the cache-sharing case would test nothing")
	}
	for _, m := range wsMethods {
		t.Run(m.name, func(t *testing.T) {
			solve := func(ws *core.Workspace, p wsProblem) (linalg.Vector, int) {
				t.Helper()
				x, iters, err := m.run(ws, p)
				if err != nil {
					t.Fatal(err)
				}
				return x, iters
			}
			want, wantIters := solve(nil, eu)
			check := func(label string, got linalg.Vector, iters int) {
				t.Helper()
				if iters != wantIters {
					t.Errorf("%s: %d iterations, plain form took %d", label, iters, wantIters)
				}
				if len(got) != len(want) {
					t.Fatalf("%s: %d outputs, plain form gave %d", label, len(got), len(want))
				}
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s: output %d is %v, plain form gave %v", label, i, got[i], want[i])
					}
				}
			}

			got, iters := solve(core.NewWorkspace(nil), eu)
			check("fresh workspace", got, iters)

			reused := core.NewWorkspace(nil)
			solve(reused, us)
			got, iters = solve(reused, eu)
			check("workspace reused after a larger network", got, iters)

			cache := core.NewSolveCache()
			a, b := core.NewWorkspace(cache), core.NewWorkspace(cache)
			got, iters = solve(a, eu)
			check("first workspace on a shared cache", got, iters)
			got, iters = solve(b, euTwin)
			check("second workspace on a shared cache", got, iters)
		})
	}
}
