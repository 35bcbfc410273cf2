package stream

import (
	"context"
	"math"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/netsim"
	"repro/internal/topology"
)

// hostedNew creates an engine hosted the way internal/fleet hosts its
// engines: a coalescing kick hook (Config.ResolveDispatch) wakes a
// resolver goroutine that runs each parked re-solve with TryResolve. The
// resolver outlives Run and stops in t.Cleanup.
func hostedNew(t *testing.T, rt *topology.Routing, cfg Config) *Engine {
	t.Helper()
	kick := make(chan struct{}, 1)
	cfg.ResolveDispatch = func() {
		select {
		case kick <- struct{}{}:
		default:
		}
	}
	eng, err := New(rt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-ctx.Done():
				return
			case <-kick:
				eng.TryResolve(ctx)
			}
		}
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	return eng
}

// TestDispatchModeParksResolves pins the dispatch contract every host
// builds on: the engine never solves on its own — scheduled windows park
// until the host calls TryResolve — and Config.ResolveDispatch fires
// once per parked window.
func TestDispatchModeParksResolves(t *testing.T) {
	sc, err := netsim.BuildEurope(1)
	if err != nil {
		t.Fatal(err)
	}
	const cycles, every = 6, 2
	var dispatched atomic.Int64
	eng, err := New(sc.Rt, Config{
		Window:       3,
		ResolveEvery: every,
		ResolveDispatch: func() {
			dispatched.Add(1)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	replayInto(t, sc, eng, cycles, cycles)

	if got, want := dispatched.Load(), int64(cycles/every); got != want {
		t.Fatalf("dispatch hook fired %d times, want %d (one per scheduled window)", got, want)
	}
	snap, ok := eng.Latest()
	if !ok {
		t.Fatal("no snapshot after replay")
	}
	if snap.Resolve != nil {
		t.Fatal("engine solved on its own; re-solves must wait for TryResolve")
	}
	if !eng.ResolvePending() {
		t.Fatal("no parked re-solve after scheduled windows")
	}

	// The host (here: the test) executes the parked solve inline.
	ctx := context.Background()
	if !eng.TryResolve(ctx) {
		t.Fatal("TryResolve consumed nothing with work parked")
	}
	if eng.TryResolve(ctx) {
		t.Fatal("TryResolve consumed a second solve; only one window was parked (latest wins)")
	}
	snap, _ = eng.Latest()
	if snap.Resolve == nil {
		t.Fatal("TryResolve did not publish the re-solve")
	}
	// Latest wins: the parked window is the newest scheduled one.
	if snap.ResolveInterval != cycles-1 {
		t.Fatalf("parked re-solve covered interval %d, want %d (latest wins)", snap.ResolveInterval, cycles-1)
	}
	if snap.ResolveMRE < 0 || math.IsNaN(snap.ResolveMRE) {
		t.Fatalf("implausible resolve MRE %v", snap.ResolveMRE)
	}
}

// TestPublishedVersionHasParkedResolve pins the publish/park ordering:
// once a snapshot is observable, the re-solve its interval scheduled is
// already parked. An observer spins on the engine's read lock without
// ever sleeping (TryRLock), so it sees each new snapshot the instant the
// publisher releases the lock — if parking happened after publishing,
// the observer would regularly find nothing parked. Every interval
// schedules a re-solve and the observer drains each one, so every
// observed interval must find exactly its own work waiting.
func TestPublishedVersionHasParkedResolve(t *testing.T) {
	sc, err := netsim.BuildEurope(1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(sc.Rt, Config{Window: 3, ResolveEvery: 1, ResolveDispatch: func() {}})
	if err != nil {
		t.Fatal(err)
	}
	const intervals = 400
	// Spinning without yielding is what catches a late park on a
	// multi-core box; on a single CPU the observer must yield so the
	// publisher can run at all.
	yield := runtime.GOMAXPROCS(0) == 1
	observed := make(chan struct{})
	failures := make(chan int, intervals)
	go func() {
		for want := 0; want < intervals; want++ {
			for {
				if eng.mu.TryRLock() {
					seen := eng.have && eng.snap.Interval == want
					eng.mu.RUnlock()
					if seen {
						break
					}
				}
				if yield {
					runtime.Gosched()
				}
			}
			if w := eng.pending.Swap(nil); w == nil || w.interval != want {
				failures <- want
			}
			observed <- struct{}{}
		}
	}()
	demands := sc.Series.Demands
	for iv := 0; iv < intervals; iv++ {
		eng.consume(iv, demands[iv%len(demands)].Clone(), sc.Net.NumPairs())
		<-observed
	}
	close(failures)
	var missed []int
	for iv := range failures {
		missed = append(missed, iv)
	}
	if len(missed) > 0 {
		t.Fatalf("%d of %d published intervals had no parked re-solve when observed (first: %d)", len(missed), intervals, missed[0])
	}
}
