package main

import (
	"fmt"
	"time"

	"repro/internal/fleet"
	"repro/internal/netsim"
	"repro/internal/scenario"
	"repro/internal/stats"
)

// runConfig is one invocation's settings.
type runConfig struct {
	seed  int64
	smoke bool // short sizes for the benchmark's own tests
}

// scale stretches a period in smoke mode, where the benchmark's own
// tests may run under the race detector.
func (rc runConfig) scale(d time.Duration) time.Duration {
	if rc.smoke {
		return 5 * d
	}
	return d
}

// workload runs one phase: set up `setups` times (the last set-up is
// kept), then measure for dur. A non-nil tracer records spans.
type workload func(rc runConfig, dur time.Duration, tr *tracer, setups int) (*phase, error)

var workloads = map[string]workload{
	"fleet-freshness": fleetFreshness,
	"read-path":       readPath,
}

// fleetFreshness: eighteen Europe tenants re-solving every 3 intervals
// on a two-worker pool, an interval per tenant every 60 ms, two
// long-poll followers that move to their next tenant every second, and
// a 1 Hz registry render. The tenants tick in three groups of six, so
// each group parks six re-solves at once on the two workers: a third
// start at once, a third wait one solve and a third two, which puts the
// median re-solve in the middle of the queue. The accuracy ratio
// depends on the instances, so a run averages over many.
func fleetFreshness(rc runConfig, dur time.Duration, tr *tracer, setups int) (*phase, error) {
	cfg := streamConfig{
		followers:    2,
		rotate:       time.Second,
		period:       rc.scale(60 * time.Millisecond),
		groups:       3,
		window:       6,
		resolveEvery: 3,
		scrapeEvery:  time.Second,
		encodeEvery:  10,
		build: func() ([]tenantDef, float64, error) {
			t0 := time.Now()
			var defs []tenantDef
			const tenants = 18
			for i := 0; i < tenants; i++ {
				// Disjoint per run seed, so no two seeds share an instance.
				seed := rc.seed*tenants + int64(i) + 1
				sc, err := netsim.BuildEurope(seed)
				if err != nil {
					return nil, 0, err
				}
				defs = append(defs, tenantDef{
					spec: fleet.TenantSpec{Name: fmt.Sprintf("eu%d", i), Source: "europe", Seed: seed,
						Window: 6, ResolveEvery: 3, Method: "entropy"},
					sc: sc, demands: sc.Series.Demands,
				})
			}
			return defs, time.Since(t0).Seconds(), nil
		},
	}
	p, st, err := streamPhase(cfg, dur, tr, setups)
	if err != nil {
		return nil, err
	}
	p.metric("fresh_resolve_p50_ms", "freshness_p50_ms", st.freshR, 0.5, "ms")
	p.metric("fresh_resolve_p99_ms", "", st.freshR, 0.99, "ms")
	p.metric("fresh_gravity_p50_ms", "", st.freshG, 0.5, "ms")
	p.metric("fresh_gravity_p99_ms", "", st.freshG, 0.99, "ms")
	// The ratio depends on the instance, so the slot averages it over the
	// bodies of every tenant the followers visited: the mean of 18
	// instances spreads less between seeds than their median.
	p.named("resolve_mre_ratio", "quality_ratio", value{stats.Mean(st.quality), "ratio", len(st.quality)})
	return p, nil
}

// readPath: one 100-PoP gravity-only tenant, an interval every 200 ms,
// one long-poll follower and a 250 req/s open-loop conditional poller
// (smoke mode: 20 PoPs, a fifth of the rates). At 100 ms per interval
// the encode-gzip-decode chain filled the period on a 2-core box and
// the backlog grew in some runs.
func readPath(rc runConfig, dur time.Duration, tr *tracer, setups int) (*phase, error) {
	pops, rate := 100, 250.0
	if rc.smoke {
		pops, rate = 20, 50
	}
	cfg := streamConfig{
		followers:   1,
		period:      rc.scale(200 * time.Millisecond),
		window:      6,
		pollRate:    rate,
		encodeEvery: 5,
		build: func() ([]tenantDef, float64, error) {
			t0 := time.Now()
			in, err := scenario.Build(fmt.Sprintf("scaled:%d", pops), rc.seed)
			if err != nil {
				return nil, 0, err
			}
			return []tenantDef{{
				spec: fleet.TenantSpec{Name: fmt.Sprintf("p%d", pops), Source: fmt.Sprintf("scenario:scaled:%d", pops), Seed: rc.seed,
					Window: 6, ResolveEvery: -1},
				sc: in.Sc, demands: in.BusySeries().Demands,
			}}, time.Since(t0).Seconds(), nil
		},
	}
	p, st, err := streamPhase(cfg, dur, tr, setups)
	if err != nil {
		return nil, err
	}
	p.metric("fresh_gravity_p50_ms", "freshness_p50_ms", st.freshG, 0.5, "ms")
	p.metric("fresh_gravity_p90_ms", "", st.freshG, 0.9, "ms")
	p.metric("read_p50_ms", "", st.read, 0.5, "ms")
	p.metric("read_p99_ms", "", st.read, 0.99, "ms")
	p.metric("poll_late_p99_ms", "", st.pollLate, 0.99, "ms")
	p.metric("served_gravity_mre", "quality_ratio", st.quality, 0.5, "ratio")
	return p, nil
}

// streamPhase sets a streaming workload up `setups` times, keeps the
// last environment, runs the timed phase and tears it down.
func streamPhase(cfg streamConfig, dur time.Duration, tr *tracer, setups int) (*phase, streamStats, error) {
	var env *streamEnv
	var times []float64
	for i := 0; i < setups; i++ {
		if env != nil {
			if err := env.close(); err != nil {
				return nil, streamStats{}, fmt.Errorf("teardown: %w", err)
			}
		}
		t0 := time.Now()
		var err error
		if env, err = startStream(cfg); err != nil {
			return nil, streamStats{}, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	p := newPhase()
	r := runStream(env, dur, tr, p)
	st := r.analyze(env, tr, p)
	if r.poll != nil {
		st.read, st.pollLate = r.poll.lat, r.poll.late
	}
	if err := env.close(); err != nil {
		return nil, streamStats{}, fmt.Errorf("teardown: %w", err)
	}
	finishE2E(p, times)
	return p, st, nil
}
