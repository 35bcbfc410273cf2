package stream

import (
	"context"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/collector"
	"repro/internal/netsim"
)

// TestDispatchModeParksResolves pins the injected-dispatch contract the
// fleet builds on: with Config.ResolveDispatch set the engine never
// solves on its own — scheduled windows park until the host calls
// TryResolve — and the hook fires once per parked window.
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
		t.Fatal("engine solved on its own despite dispatch mode")
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

// TestDispatchMatchesWorker proves moving the re-solve onto a host
// goroutine changes nothing about the estimate: with exactly one solve
// scheduled (so both engines solve the same window cold, with the same
// budget), the dispatch-mode host's TryResolve must publish the same
// vector the worker-mode engine does.
func TestDispatchMatchesWorker(t *testing.T) {
	sc, err := netsim.BuildEurope(1)
	if err != nil {
		t.Fatal(err)
	}
	const cycles = 6
	base := Config{Window: 3, ResolveEvery: cycles} // one solve, at the last interval

	worker, err := New(sc.Rt, base)
	if err != nil {
		t.Fatal(err)
	}
	store := collector.NewStore(sc.Net.NumPairs())
	runCtx, cancelRun := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancelRun()
	done := make(chan error, 1)
	go func() { done <- worker.Run(runCtx, store) }()
	if err := collector.Replay(runCtx, store, sc.Series, cycles, 0); err != nil {
		t.Fatalf("replay: %v", err)
	}
	// Wait for the one scheduled re-solve before shutting down: the
	// worker drains without solving once the context is cancelled.
	var want Snapshot
	deadline := time.Now().Add(time.Minute)
	for {
		var ok bool
		if want, ok = worker.Latest(); ok && want.Resolve != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("worker engine never published its re-solve")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancelRun()
	<-done
	if want.ResolveInterval != cycles-1 {
		t.Fatalf("worker re-solve covered interval %d, want %d", want.ResolveInterval, cycles-1)
	}

	cfgD := base
	cfgD.ResolveDispatch = func() {}
	dispatch, err := New(sc.Rt, cfgD)
	if err != nil {
		t.Fatal(err)
	}
	replayInto(t, sc, dispatch, cycles, cycles)
	if !dispatch.TryResolve(context.Background()) {
		t.Fatal("no parked re-solve on the dispatch engine")
	}
	got, _ := dispatch.Latest()
	if got.Resolve == nil || got.ResolveInterval != cycles-1 {
		t.Fatalf("dispatch re-solve missing or at interval %d, want %d", got.ResolveInterval, cycles-1)
	}
	if len(got.Resolve) != len(want.Resolve) {
		t.Fatalf("dispatch resolve has %d demands, worker %d", len(got.Resolve), len(want.Resolve))
	}
	for p := range want.Resolve {
		if d := math.Abs(got.Resolve[p] - want.Resolve[p]); d > 1e-9 {
			t.Fatalf("demand %d: dispatch %v vs worker %v (diff %g)", p, got.Resolve[p], want.Resolve[p], d)
		}
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
			select {
			case w := <-eng.work:
				if w.interval != want {
					failures <- want
				}
			default:
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
