package stream

import (
	"context"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/collector"
	"repro/internal/linalg"
	"repro/internal/netsim"
	"repro/internal/topology"
)

// swapHarness drives one engine interval by interval, so
// tests control exactly what is consumed and when parked re-solves run.
type swapHarness struct {
	t       *testing.T
	sc      *netsim.Scenario
	eng     *Engine
	store   *collector.Store
	ctx     context.Context
	cancel  context.CancelFunc
	done    chan error
	version uint64
}

func newSwapHarness(t *testing.T, sc *netsim.Scenario, rt *topology.Routing, cfg Config) *swapHarness {
	t.Helper()
	cfg.ResolveDispatch = func() {}
	eng, err := New(rt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	h := &swapHarness{
		t: t, sc: sc, eng: eng,
		store: collector.NewStore(sc.Net.NumPairs()),
		ctx:   ctx, cancel: cancel,
		done: make(chan error, 1),
	}
	go func() { h.done <- eng.Run(ctx, h.store) }()
	t.Cleanup(func() {
		cancel()
		<-h.done
	})
	return h
}

// feed ingests base-series intervals [from, to) in full and waits for
// each publication; the harness's hook runs no parked re-solve (only
// resolve does), so versions advance exactly one per interval.
func (h *swapHarness) feed(from, to int) Snapshot {
	h.t.Helper()
	return h.feedShifted(from, to, 0)
}

// feedShifted ingests demands [from, to) under store interval numbers
// shifted by shift — a control engine can replay another engine's
// window content starting from its own interval 0.
func (h *swapHarness) feedShifted(from, to, shift int) Snapshot {
	h.t.Helper()
	var snap Snapshot
	for iv := from; iv < to; iv++ {
		d := h.sc.Series.Demands[iv%len(h.sc.Series.Demands)]
		for p, mbps := range d {
			h.store.Ingest(collector.RateRecord{LSP: p, Interval: iv + shift, RateMbps: mbps, Poller: "swap-test"})
		}
		h.version++
		var err error
		if snap, err = h.eng.WaitVersion(h.ctx, h.version); err != nil {
			h.t.Fatalf("WaitVersion(%d): %v", h.version, err)
		}
	}
	return snap
}

// resolve executes the parked re-solve and returns its publication.
func (h *swapHarness) resolve() Snapshot {
	h.t.Helper()
	if !h.eng.TryResolve(h.ctx) {
		h.t.Fatal("TryResolve consumed nothing; expected a parked re-solve")
	}
	h.version++
	snap, err := h.eng.WaitVersion(h.ctx, h.version)
	if err != nil {
		h.t.Fatalf("WaitVersion(%d): %v", h.version, err)
	}
	return snap
}

// failedRouting removes the first interior adjacency whose removal
// keeps the network routable and returns the surviving routing.
func failedRouting(t *testing.T, net *topology.Network) *topology.Routing {
	t.Helper()
	for _, l := range net.Links {
		if l.Kind != topology.Interior || l.Src > l.Dst {
			continue
		}
		reduced := topology.RemoveAdjacency(net, l.ID)
		if rt, err := reduced.Route(); err == nil {
			return rt
		}
	}
	t.Fatal("no removable interior adjacency")
	return nil
}

// stripClock zeroes the wall-clock fields so two runs can be compared
// byte for byte (publication time is the one intentionally
// non-deterministic snapshot field).
func stripClock(t *testing.T, s Snapshot) string {
	t.Helper()
	s.Time = time.Time{}
	s.ResolveDuration = 0
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestSwapRoutingValidation(t *testing.T) {
	sc, err := netsim.BuildEurope(1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(sc.Rt, Config{Window: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.SwapRouting(nil, 1, 0); err == nil {
		t.Error("nil routing accepted")
	}
	if err := eng.SwapRouting(sc.Rt, 1, -1); err == nil {
		t.Error("negative interval accepted")
	}
	other, err := netsim.BuildAmerica(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.SwapRouting(other.Rt, 1, 0); err == nil {
		t.Error("dimension-changing routing accepted")
	}
	rt := failedRouting(t, sc.Net)
	if err := eng.SwapRouting(rt, 1, 5); err != nil {
		t.Fatalf("scheduling a valid swap: %v", err)
	}
	if err := eng.SwapRouting(rt, 2, 5); err == nil {
		t.Error("second swap at the same interval accepted")
	}
	if err := eng.SwapRouting(rt, 1, 9); err == nil {
		t.Error("non-increasing epoch accepted")
	}
	if err := eng.SwapRouting(rt, 0, 9); err == nil {
		t.Error("epoch behind the queue accepted")
	}
}

// TestSwapIdenticalRoutingIsNoOp pins the redundant-announcement
// contract: swapping to a routing whose matrix equals the active one
// changes nothing — the next published snapshot is byte-identical
// (modulo wall clock) to a run that never heard the announcement, and
// the epoch does not move.
func TestSwapIdenticalRoutingIsNoOp(t *testing.T) {
	sc, err := netsim.BuildEurope(1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Window: 4, ResolveEvery: 3}
	a := newSwapHarness(t, sc, sc.Rt, cfg)
	b := newSwapHarness(t, sc, sc.Rt, cfg)

	a.feed(0, 4)
	b.feed(0, 4)
	// An independent re-route of the same network: a distinct Routing
	// object carrying the byte-identical matrix.
	same, err := sc.Net.Route()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.eng.SwapRouting(same, 7, 4); err != nil {
		t.Fatalf("identical swap rejected: %v", err)
	}
	sa := a.feed(4, 5)
	sb := b.feed(4, 5)
	if got, want := stripClock(t, sa), stripClock(t, sb); got != want {
		t.Fatalf("identical-matrix swap changed the next snapshot:\n got %s\nwant %s", got, want)
	}
	if ep := a.eng.TopologyEpoch(); ep != 0 {
		t.Fatalf("identical-matrix swap moved the epoch to %d, want 0", ep)
	}
	ra := a.resolve()
	rb := b.resolve()
	if got, want := stripClock(t, ra), stripClock(t, rb); got != want {
		t.Fatalf("identical-matrix swap changed the re-solve:\n got %s\nwant %s", got, want)
	}
}

// TestSwapRemapsWarmStart is the hot-swap property check: after a
// mid-stream reroute the remapped warm iterate is non-negative,
// consistent with the new routing's access rows (the per-PoP window
// totals), and measurably cheaper to refine than a cold start on the
// same window.
func TestSwapRemapsWarmStart(t *testing.T) {
	sc, err := netsim.BuildEurope(1)
	if err != nil {
		t.Fatal(err)
	}
	failed := failedRouting(t, sc.Net)

	const window = 6
	warm := newSwapHarness(t, sc, sc.Rt, Config{Window: window, ResolveEvery: 3})
	warm.feed(0, 6)
	pre := warm.resolve() // builds the warm iterate on the base topology
	if pre.Resolve == nil || pre.ResolveWarm {
		t.Fatalf("priming resolve: Resolve nil=%v warm=%v, want a cold first solve", pre.Resolve == nil, pre.ResolveWarm)
	}

	if err := warm.eng.SwapRouting(failed, 1, 6); err != nil {
		t.Fatalf("SwapRouting: %v", err)
	}
	snap := warm.feed(6, 9)
	if snap.TopologyEpoch != 1 {
		t.Fatalf("post-swap snapshot epoch %d, want 1", snap.TopologyEpoch)
	}
	post := warm.resolve() // window [3,9) under the failed routing
	if post.Resolve == nil || !post.ResolveWarm {
		t.Fatal("post-swap re-solve did not warm-start; the remapped iterate was lost")
	}
	for i, v := range post.Resolve {
		if v < 0 {
			t.Fatalf("post-swap estimate negative at pair %d: %v", i, v)
		}
	}

	// Consistency: the estimate must reproduce the access-link loads of
	// the new routing (per-PoP origin/destination totals of the window
	// mean) to solver tolerance.
	loads := failed.LinkLoads(post.Resolve)
	want := failed.LinkLoads(post.Mean)
	for _, l := range failed.Net.Links {
		if l.Kind == topology.Interior {
			continue
		}
		if w := want[l.ID]; w > 0 {
			if rel := (loads[l.ID] - w) / w; rel > 0.05 || rel < -0.05 {
				t.Fatalf("access link %d load %v, window total %v (off by %.1f%%)",
					l.ID, loads[l.ID], w, 100*rel)
			}
		}
	}

	// Cold control: a fresh engine on the failed routing fed the very
	// same window, first re-solve at the same interval. Same problem,
	// cold iterate — it must take more solver iterations than the
	// remapped warm start.
	cold := newSwapHarness(t, sc, failed, Config{Window: window, ResolveEvery: 6})
	cold.feedShifted(3, 9, -3) // A's window content, renumbered from 0
	coldSnap := cold.resolve()
	if coldSnap.ResolveWarm {
		t.Fatal("control solve unexpectedly warm")
	}
	if linalg.RelL1(coldSnap.Mean, post.Mean) > 1e-12 {
		t.Fatal("control window mean differs; the comparison is not like for like")
	}
	if post.ResolveIterations >= coldSnap.ResolveIterations {
		t.Fatalf("warm-started post-swap solve took %d iterations, cold start took %d; the remap bought nothing",
			post.ResolveIterations, coldSnap.ResolveIterations)
	}
}

// TestCheckpointCarriesTopologyEpoch pins the format-2 contract: a
// checkpoint taken past a swap records the epoch, a fresh engine must
// be moved onto that epoch before Restore, and the restored engine
// resumes on the post-swap topology with the warm iterate intact.
func TestCheckpointCarriesTopologyEpoch(t *testing.T) {
	sc, err := netsim.BuildEurope(1)
	if err != nil {
		t.Fatal(err)
	}
	failed := failedRouting(t, sc.Net)

	h := newSwapHarness(t, sc, sc.Rt, Config{Window: 4, ResolveEvery: 3})
	h.feed(0, 6)
	h.resolve()
	if err := h.eng.SwapRouting(failed, 1, 6); err != nil {
		t.Fatal(err)
	}
	h.feed(6, 9)
	h.resolve()
	cp := h.eng.Checkpoint()
	if cp.Format != CheckpointFormat || cp.TopologyEpoch != 1 {
		t.Fatalf("checkpoint format %d epoch %d, want %d and 1", cp.Format, cp.TopologyEpoch, CheckpointFormat)
	}

	fresh, err := New(sc.Rt, Config{Window: 4, ResolveEvery: 3, ResolveDispatch: func() {}})
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Restore(cp); err == nil {
		t.Fatal("Restore on the wrong topology epoch accepted")
	}
	if err := fresh.SwapRouting(failed, 1, 0); err != nil {
		t.Fatalf("moving onto the checkpointed epoch: %v", err)
	}
	if err := fresh.Restore(cp); err != nil {
		t.Fatalf("Restore after the epoch swap: %v", err)
	}
	want, _ := h.eng.Latest()
	got, ok := fresh.Latest()
	if !ok || snapJSON(t, got) != snapJSON(t, want) {
		t.Fatal("restored snapshot differs from the checkpointed one")
	}

	// Resume: the restored engine consumes the next intervals under the
	// failed routing and its next re-solve still warm-starts.
	store := collector.NewStore(sc.Net.NumPairs())
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- fresh.Run(ctx, store) }()
	for iv := 9; iv < 12; iv++ {
		for p, mbps := range sc.Series.Demands[iv%len(sc.Series.Demands)] {
			store.Ingest(collector.RateRecord{LSP: p, Interval: iv, RateMbps: mbps, Poller: "swap-test"})
		}
	}
	base := want.Version
	if _, err := fresh.WaitVersion(ctx, base+3); err != nil {
		t.Fatalf("restored engine did not consume: %v", err)
	}
	if !fresh.TryResolve(ctx) {
		t.Fatal("no parked re-solve after resuming")
	}
	snap, err := fresh.WaitVersion(ctx, base+4)
	if err != nil {
		t.Fatal(err)
	}
	if snap.TopologyEpoch != 1 {
		t.Fatalf("resumed on epoch %d, want 1", snap.TopologyEpoch)
	}
	if !snap.ResolveWarm {
		t.Fatal("re-solve after restore did not warm-start; the checkpoint lost the iterate")
	}
	cancel()
	<-done
}

// TestRestoredSwapAtCursorWaitsForItsInterval pins the re-arm rule a
// restored host relies on: a swap scheduled at the restored cursor k
// (interval k not consumed yet) must not move the engine onto the new
// epoch before interval k is consumed — otherwise the engine reports an
// epoch its snapshot and checkpoint do not carry.
func TestRestoredSwapAtCursorWaitsForItsInterval(t *testing.T) {
	sc, err := netsim.BuildEurope(1)
	if err != nil {
		t.Fatal(err)
	}
	failed := failedRouting(t, sc.Net)
	cfg := Config{Window: 4, ResolveEvery: 3}

	h := newSwapHarness(t, sc, sc.Rt, cfg)
	h.feed(0, 6)
	cp := h.eng.Checkpoint()
	const k = 6
	if cp.Next != k || cp.TopologyEpoch != 0 {
		t.Fatalf("checkpoint cursor %d epoch %d, want %d and 0", cp.Next, cp.TopologyEpoch, k)
	}

	cfg.ResolveDispatch = func() {}
	eng, err := New(sc.Rt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Restore(cp); err != nil {
		t.Fatal(err)
	}
	if err := eng.SwapRouting(failed, 1, k); err != nil {
		t.Fatal(err)
	}
	epochs := func(when string, want int) {
		t.Helper()
		snap, _ := eng.Latest()
		if got := eng.TopologyEpoch(); got != want {
			t.Fatalf("%s: engine on epoch %d, want %d", when, got, want)
		}
		if snap.TopologyEpoch != want {
			t.Fatalf("%s: snapshot on epoch %d, want %d", when, snap.TopologyEpoch, want)
		}
		if got := eng.Checkpoint().TopologyEpoch; got != want {
			t.Fatalf("%s: checkpoint on epoch %d, want %d", when, got, want)
		}
	}
	epochs("armed at the cursor", 0)

	store := collector.NewStore(sc.Net.NumPairs())
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- eng.Run(ctx, store) }()
	for p, mbps := range sc.Series.Demands[k%len(sc.Series.Demands)] {
		store.Ingest(collector.RateRecord{LSP: p, Interval: k, RateMbps: mbps, Poller: "swap-test"})
	}
	snap, err := eng.WaitVersion(ctx, cp.Snapshot.Version+1)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Interval != k {
		t.Fatalf("published interval %d, want %d", snap.Interval, k)
	}
	epochs("interval k consumed", 1)
	cancel()
	<-done
}
