package stream

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/collector"
	"repro/internal/linalg"
	"repro/internal/netsim"
)

// runReplay drives an engine over a deterministic replay for the given
// cycles, waits until every interval has been published, and shuts it
// down.
func runReplay(t testing.TB, sc *netsim.Scenario, eng *Engine, cycles int) {
	t.Helper()
	runReplayResolve(t, sc, eng, cycles, -1)
}

// runReplayResolve is runReplay that additionally waits, before it
// shuts the engine down, for a published re-solve covering resolveIv or
// later (-1 skips the wait).
func runReplayResolve(t testing.TB, sc *netsim.Scenario, eng *Engine, cycles, resolveIv int) {
	t.Helper()
	store := collector.NewStore(sc.Net.NumPairs())
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- eng.Run(ctx, store) }()
	if err := collector.Replay(ctx, store, sc.Series, cycles, 0); err != nil {
		t.Fatal(err)
	}
	for v := uint64(1); ; {
		snap, err := eng.WaitVersion(ctx, v)
		if err != nil {
			t.Fatal(err)
		}
		if snap.Interval >= cycles-1 {
			break
		}
		v = snap.Version + 1
	}
	if resolveIv >= 0 {
		waitResolve(t, eng, ctx, resolveIv)
	}
	cancel()
	<-done
}

// snapJSON canonicalizes a snapshot for comparison (reflect.DeepEqual
// trips over time.Time's monotonic clock reading).
func snapJSON(t *testing.T, s Snapshot) string {
	t.Helper()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestCheckpointRoundTrip is the tentpole persistence check: Checkpoint
// → SaveCheckpoint → LoadCheckpoint → Restore must hand a fresh engine
// the same published snapshot (served immediately, before Run) and the
// same metric history, and the restored engine must resume consuming
// exactly where the original stopped, matching an uninterrupted run's
// estimates to within float tolerance.
func TestCheckpointRoundTrip(t *testing.T) {
	sc, err := netsim.BuildEurope(1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Window: 4, ResolveEvery: 3}
	const firstLeg, total = 10, 14

	orig := hostedNew(t, sc.Rt, cfg)
	// Wait for the first leg's last scheduled re-solve (every third
	// interval: 2, 5, 8), so no re-solve lands between the checkpoint and
	// the comparison with the original below.
	runReplayResolve(t, sc, orig, firstLeg, 8)

	path := filepath.Join(t.TempDir(), "engine.ckpt")
	if err := SaveCheckpoint(path, orig.Checkpoint()); err != nil {
		t.Fatal(err)
	}
	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	restored := hostedNew(t, sc.Rt, cfg)
	if err := restored.Restore(cp); err != nil {
		t.Fatal(err)
	}

	// The restored engine serves the original's snapshot before Run — the
	// "restarted daemon is never dark" property.
	origSnap, ok := orig.Latest()
	if !ok {
		t.Fatal("original has no snapshot")
	}
	restSnap, ok := restored.Latest()
	if !ok {
		t.Fatal("restored engine dark before Run")
	}
	if a, b := snapJSON(t, origSnap), snapJSON(t, restSnap); a != b {
		t.Fatalf("restored snapshot differs:\n%s\nvs\n%s", a, b)
	}
	origMetrics, _ := json.Marshal(orig.Metrics())
	restMetrics, _ := json.Marshal(restored.Metrics())
	if string(origMetrics) != string(restMetrics) {
		t.Fatal("restored metric history differs")
	}

	// Resume: the restored engine must pick up at interval `firstLeg`
	// (replay re-feeds 0..firstLeg-1, which the cursor skips) and its
	// final window must match an uninterrupted engine's.
	runReplay(t, sc, restored, total)
	uninterrupted := hostedNew(t, sc.Rt, cfg)
	runReplay(t, sc, uninterrupted, total)

	got, _ := restored.Latest()
	want, _ := uninterrupted.Latest()
	if got.Interval != want.Interval || got.Window != want.Window {
		t.Fatalf("resumed at interval %d window %d, want %d/%d", got.Interval, got.Window, want.Interval, want.Window)
	}
	for p := range want.Gravity {
		if d := math.Abs(got.Gravity[p] - want.Gravity[p]); d > 1e-9 {
			t.Fatalf("demand %d: resumed gravity %v vs uninterrupted %v (diff %g)", p, got.Gravity[p], want.Gravity[p], d)
		}
		if d := math.Abs(got.Mean[p] - want.Mean[p]); d > 1e-9 {
			t.Fatalf("demand %d: resumed mean %v vs uninterrupted %v (diff %g)", p, got.Mean[p], want.Mean[p], d)
		}
	}
	// Versions must continue from the restored point, never regress.
	if got.Version <= origSnap.Version {
		t.Fatalf("resumed version %d did not advance past restored %d", got.Version, origSnap.Version)
	}
}

// TestCheckpointWarmSeed checks that a restore re-seeds the warm-start
// state from the persisted Resolve: the restarted engine's first
// re-solve must report itself warm-started.
func TestCheckpointWarmSeed(t *testing.T) {
	sc, err := netsim.BuildEurope(1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Window: 4, ResolveEvery: 2}
	orig := hostedNew(t, sc.Rt, cfg)
	// Wait for a re-solve to land before the engine stops, so the
	// checkpoint definitely carries one.
	runReplayResolve(t, sc, orig, 4, 1)
	cp := orig.Checkpoint()
	if cp.Snapshot == nil || cp.Snapshot.Resolve == nil {
		t.Fatal("checkpoint lost the re-solve")
	}

	restored := hostedNew(t, sc.Rt, cfg)
	if err := restored.Restore(cp); err != nil {
		t.Fatal(err)
	}
	runReplayResolve(t, sc, restored, 8, 5)
	got, ok := restored.Latest()
	if !ok || got.Resolve == nil || got.ResolveInterval < 5 {
		t.Fatalf("no post-restore re-solve in the latest snapshot (%+v)", got.ResolveInterval)
	}
	if !got.ResolveWarm {
		t.Fatal("first re-solve after restore not warm-started from the checkpointed estimate")
	}
}

// TestRestoreValidation exercises every rejection path: wrong format,
// wrong dimensions, wrong method, mis-sized ring entries, and restoring
// into a running engine.
func TestRestoreValidation(t *testing.T) {
	eu, err := netsim.BuildEurope(1)
	if err != nil {
		t.Fatal(err)
	}
	us, err := netsim.BuildAmerica(1)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := New(eu.Rt, Config{Window: 3})
	if err != nil {
		t.Fatal(err)
	}
	runReplay(t, eu, orig, 4)
	cp := orig.Checkpoint()

	if e, _ := New(eu.Rt, Config{Window: 3}); true {
		for _, format := range []int{1, 99} {
			bad := cp
			bad.Format = format
			if err := e.Restore(bad); err == nil {
				t.Fatalf("checkpoint format %d accepted", format)
			}
		}
	}
	if e, _ := New(us.Rt, Config{Window: 3}); true {
		if err := e.Restore(cp); err == nil {
			t.Fatal("checkpoint restored into a different scenario")
		}
	}
	if e, _ := New(eu.Rt, Config{Window: 3, Method: MethodVardi}); true {
		if err := e.Restore(cp); err == nil {
			t.Fatal("checkpoint restored into a different method")
		}
	}
	if e, _ := New(eu.Rt, Config{Window: 3}); true {
		bad := cp
		bad.Ring = append([]checkpointEntry(nil), cp.Ring...)
		bad.Ring[0] = checkpointEntry{Interval: bad.Ring[0].Interval, Demand: linalg.NewVector(3)}
		if err := e.Restore(bad); err == nil {
			t.Fatal("mis-sized ring entry accepted")
		}
	}
	if e, _ := New(eu.Rt, Config{Window: 3}); true {
		ctx, cancel := context.WithCancel(context.Background())
		store := collector.NewStore(eu.Net.NumPairs())
		done := make(chan error, 1)
		go func() { done <- e.Run(ctx, store) }()
		for !e.started.Load() {
			time.Sleep(time.Millisecond)
		}
		if err := e.Restore(cp); err == nil {
			t.Fatal("Restore accepted on a running engine")
		}
		cancel()
		<-done
	}
}

// TestRestoreShrinksWindow checks a restart with a smaller -window: the
// restored ring keeps the newest entries and the sums match them.
func TestRestoreShrinksWindow(t *testing.T) {
	sc, err := netsim.BuildEurope(1)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := New(sc.Rt, Config{Window: 6})
	if err != nil {
		t.Fatal(err)
	}
	runReplay(t, sc, orig, 8)
	cp := orig.Checkpoint()
	if len(cp.Ring) != 6 {
		t.Fatalf("checkpoint ring has %d entries, want 6", len(cp.Ring))
	}

	shrunk, err := New(sc.Rt, Config{Window: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := shrunk.Restore(cp); err != nil {
		t.Fatal(err)
	}
	shrunk.stateMu.Lock()
	ring := shrunk.ring
	if len(ring) != 2 || ring[0].interval != 6 || ring[1].interval != 7 {
		t.Fatalf("shrunk ring holds intervals %+v, want [6 7]", ring)
	}
	wantSum := linalg.NewVector(sc.Net.NumPairs())
	linalg.Axpy(1, ring[0].demand, wantSum)
	linalg.Axpy(1, ring[1].demand, wantSum)
	for p := range wantSum {
		if d := math.Abs(shrunk.demandSum[p] - wantSum[p]); d > 1e-12 {
			t.Fatalf("demand sum rebuilt wrong at %d: %v vs %v", p, shrunk.demandSum[p], wantSum[p])
		}
	}
	shrunk.stateMu.Unlock()
}

// TestRestoreCadenceAcrossConfigChange pins the config-migration rule
// for the adaptive cadence: a backed-off curEvery survives a restart
// only while the new config still enables the back-off, and is clamped
// into its range; a fixed-cadence restart snaps back to ResolveEvery.
func TestRestoreCadenceAcrossConfigChange(t *testing.T) {
	sc, err := netsim.BuildEurope(1)
	if err != nil {
		t.Fatal(err)
	}
	backoff := Config{Window: 3, ResolveEvery: 2, ResolveMaxEvery: 16, DriftThreshold: 0.5}
	orig := hostedNew(t, sc.Rt, backoff)
	runReplay(t, sc, orig, 10) // steady enough to double the cadence at least once
	cp := orig.Checkpoint()
	if cp.CurEvery <= backoff.ResolveEvery {
		t.Fatalf("cadence never backed off (curEvery %d); test premise broken", cp.CurEvery)
	}

	curEveryAfter := func(cfg Config) int {
		e := hostedNew(t, sc.Rt, cfg)
		if err := e.Restore(cp); err != nil {
			t.Fatal(err)
		}
		e.stateMu.Lock()
		defer e.stateMu.Unlock()
		return e.curEvery
	}
	// Fixed cadence restart: the backed-off value must not survive.
	if got := curEveryAfter(Config{Window: 3, ResolveEvery: 2}); got != 2 {
		t.Fatalf("fixed-cadence restart kept curEvery %d, want 2", got)
	}
	// Back-off still on but with a tighter cap: clamp down into range.
	if got := curEveryAfter(Config{Window: 3, ResolveEvery: 2, ResolveMaxEvery: 3, DriftThreshold: 0.5}); got != 3 {
		t.Fatalf("tighter back-off cap gave curEvery %d, want clamp to 3", got)
	}
	// Same config: the cadence carries over untouched.
	if got := curEveryAfter(backoff); got != cp.CurEvery {
		t.Fatalf("same-config restart changed curEvery %d -> %d", cp.CurEvery, got)
	}
}

// TestSaveCheckpointAtomic checks the crash-safety contract: a save over
// an existing checkpoint either fully replaces it or leaves it intact,
// and no temp litter survives a successful save.
func TestSaveCheckpointAtomic(t *testing.T) {
	sc, err := netsim.BuildEurope(1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(sc.Rt, Config{Window: 3})
	if err != nil {
		t.Fatal(err)
	}
	runReplay(t, sc, eng, 4)

	dir := t.TempDir()
	path := filepath.Join(dir, "engine.ckpt")
	if err := os.WriteFile(path, []byte("{ garbage from a previous crash"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := SaveCheckpoint(path, eng.Checkpoint()); err != nil {
		t.Fatal(err)
	}
	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("checkpoint unreadable after overwrite: %v", err)
	}
	if cp.Format != CheckpointFormat || len(cp.Ring) != 3 {
		t.Fatalf("reloaded checkpoint format %d ring %d, want %d/3", cp.Format, len(cp.Ring), CheckpointFormat)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temp litter left in checkpoint dir: %v", entries)
	}
	// A missing file surfaces as os.ErrNotExist for the fresh-start path.
	if _, err := LoadCheckpoint(filepath.Join(dir, "absent.ckpt")); !os.IsNotExist(err) {
		t.Fatalf("missing checkpoint returned %v, want not-exist", err)
	}
	// Corrupt JSON must fail loudly, not restore garbage.
	bad := filepath.Join(dir, "bad.ckpt")
	if err := os.WriteFile(bad, []byte("{truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(bad); err == nil {
		t.Fatal("corrupt checkpoint parsed")
	}
}

// TestCheckpointDuringRun hammers Checkpoint while the engine consumes
// and re-solves: every captured checkpoint must be internally
// consistent (ring strictly increasing, cursor past the ring, restorable
// into a fresh engine).
func TestCheckpointDuringRun(t *testing.T) {
	sc, err := netsim.BuildEurope(1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Window: 4, ResolveEvery: 2, ResolveMaxIter: 500}
	eng := hostedNew(t, sc.Rt, cfg)
	// Probes are restored but never run, so nothing ever parks for their
	// hook to announce.
	probeCfg := cfg
	probeCfg.ResolveDispatch = func() {}
	store := collector.NewStore(sc.Net.NumPairs())
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- eng.Run(ctx, store) }()
	replayDone := make(chan error, 1)
	go func() { replayDone <- collector.Replay(ctx, store, sc.Series, 30, 0) }()

	for i := 0; ; i++ {
		cp := eng.Checkpoint()
		for j := 1; j < len(cp.Ring); j++ {
			if cp.Ring[j].Interval <= cp.Ring[j-1].Interval {
				t.Fatalf("checkpoint %d: ring intervals not increasing: %d then %d", i, cp.Ring[j-1].Interval, cp.Ring[j].Interval)
			}
		}
		if n := len(cp.Ring); n > 0 && cp.Next != cp.Ring[n-1].Interval+1 {
			t.Fatalf("checkpoint %d: cursor %d vs newest ring interval %d", i, cp.Next, cp.Ring[n-1].Interval)
		}
		if len(cp.Ring) > 0 {
			probe, err := New(sc.Rt, probeCfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := probe.Restore(cp); err != nil {
				t.Fatalf("checkpoint %d not restorable: %v", i, err)
			}
		}
		select {
		case err := <-replayDone:
			if err != nil {
				t.Fatal(err)
			}
			cancel()
			<-done
			return
		default:
		}
	}
}
