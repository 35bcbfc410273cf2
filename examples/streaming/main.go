// Streaming: run the continuous estimation engine over a replayed
// collection and watch the traffic matrix evolve — the online counterpart
// of the batch experiments. Every 5-minute interval the engine folds the
// newly collected rates into its sliding window and refreshes the cheap
// incremental gravity estimate (eq. 5); every third interval it parks a
// full entropy re-solve (eq. 6) for its host — here one goroutine calling
// TryResolve — to run, newest window first. The same engine powers the
// tmserve daemon, which serves these snapshots over HTTP/JSON instead.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/collector"
	"repro/internal/netsim"
	"repro/internal/stream"
)

func main() {
	sc, err := netsim.BuildEurope(1)
	if err != nil {
		log.Fatal(err)
	}

	// The engine pings kick whenever it parks a re-solve (coalesced, so
	// ingestion never blocks); the resolver goroutine below runs it.
	kick := make(chan struct{}, 1)
	engine, err := stream.New(sc.Rt, stream.Config{
		Window:       6, // half an hour of 5-minute intervals
		ResolveEvery: 3,
		Method:       stream.MethodEntropy,
		Reg:          1000,
		ResolveDispatch: func() {
			select {
			case kick <- struct{}{}:
			default:
			}
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	// A store fed by a deterministic replay stands in for the live
	// UDP/TCP deployment (swap in collector.NewDeployment for sockets).
	store := collector.NewStore(sc.Net.NumPairs())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	engineDone := make(chan struct{})
	go func() {
		defer close(engineDone)
		_ = engine.Run(ctx, store)
	}()
	resolverDone := make(chan struct{})
	go func() {
		defer close(resolverDone)
		for {
			select {
			case <-ctx.Done():
				return
			case <-kick:
				engine.TryResolve(ctx)
			}
		}
	}()

	// Pace the replay so each 5-minute interval takes 50 ms of wall time;
	// with pace 0 the whole day lands at once and the version waits below
	// would skip straight to the final snapshot.
	const cycles = 12
	replayDone := make(chan error, 1)
	go func() { replayDone <- collector.Replay(ctx, store, sc.Series, cycles, 50*time.Millisecond) }()

	// Follow the evolving matrix with the versioned snapshot API: wait
	// for each publication in turn and print how the estimates track the
	// collected (directly measured) window mean.
	fmt.Printf("%-8s %-9s %-7s %-12s %s\n", "version", "interval", "window", "gravity MRE", "entropy re-solve")
	for v := uint64(1); ; v++ {
		snap, err := engine.WaitVersion(ctx, v)
		if err != nil {
			log.Fatal(err)
		}
		v = snap.Version
		resolve := "-"
		if snap.Resolve != nil {
			start := "cold"
			if snap.ResolveWarm {
				start = "warm" // started from the previous published estimate
			}
			resolve = fmt.Sprintf("MRE %.3f @ interval %d (%.0f ms, %d iters, %s)",
				snap.ResolveMRE, snap.ResolveInterval, snap.ResolveDuration.Seconds()*1000,
				snap.ResolveIterations, start)
		}
		fmt.Printf("%-8d %-9d %-7d %-12.3f %s\n", snap.Version, snap.Interval, snap.Window, snap.GravityMRE, resolve)
		if snap.Interval == cycles-1 && snap.Resolve != nil {
			break
		}
	}
	if err := <-replayDone; err != nil {
		log.Fatal(err)
	}
	cancel()
	<-engineDone
	<-resolverDone

	final, _ := engine.Latest()
	fmt.Printf("\nfinal snapshot v%d: %d demands over a %d-interval window, "+
		"gravity MRE %.3f vs the collected mean, entropy MRE %.3f\n",
		final.Version, len(final.Gravity), final.Window, final.GravityMRE, final.ResolveMRE)
}
