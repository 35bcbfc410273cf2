package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/fleet"
	"repro/internal/netsim"
	"repro/internal/stats"
	"repro/internal/stream"
)

// streamStats are the derived distributions of one streaming phase, in ms.
type streamStats struct {
	freshG, freshR, quality []float64
	read, pollLate          []float64 // read-path poller only
}

// analyze turns the phase's logs into end-to-end distributions, output
// checks and per-layer metrics (the latter from the traced probes when
// tr is non-nil). After the drain, each follower must hold the last
// generated interval and a re-solve covering the last scheduled window.
func (r *streamRun) analyze(env *streamEnv, tr *tracer, p *phase) streamStats {
	cfg := env.cfg
	var st streamStats
	scheduled := func(k int) bool { return cfg.resolveEvery > 0 && (k+1)%cfg.resolveEvery == 0 }
	hubAt := map[string]map[uint64]time.Time{}
	for name, seen := range r.hub {
		hubAt[name] = map[uint64]time.Time{}
		for _, h := range seen {
			hubAt[name][h.version] = h.at
		}
	}
	var transfer []float64
	for _, fl := range r.followers {
		var doneG, doneR int
		var tf *tenantFeed
		var tenant string
		for _, rc := range fl.got {
			b := rc.body
			if rc.first {
				// A segment's opening fetch is the baseline: what was
				// published before the follower arrived is not sampled.
				tf, tenant = rc.tenant, rc.tenant.def.spec.Name
				doneG = max(b.Interval, tf.first-1)
				doneR = tf.first - 1
				if rc.hasResolve {
					doneR = max(b.ResolveInterval, doneR)
				}
				continue
			}
			gen := r.gen[tenant]
			for k := doneG + 1; k <= b.Interval && k <= tf.last; k++ {
				st.freshG = append(st.freshG, ms(rc.at.Sub(gen[k].done)))
			}
			if b.Interval > doneG {
				doneG = b.Interval
				if at, ok := hubAt[tenant][b.Version]; ok {
					transfer = append(transfer, ms(rc.at.Sub(at)))
					tr.child(tenant, b.Interval, spanTransfer, at, rc.at)
				}
			}
			if cfg.resolveEvery == 0 {
				// Gravity only: the served estimate's own error.
				st.quality = append(st.quality, b.GravityMRE)
			}
			if !rc.hasResolve {
				continue
			}
			r.tally.check(scheduled(b.ResolveInterval), "%s: re-solve of window %d, which was not scheduled", tenant, b.ResolveInterval)
			if b.GravityMRE > 0 {
				st.quality = append(st.quality, b.ResolveMRE/b.GravityMRE)
			}
			// A window superseded by latest-wins scheduling counts when a
			// newer re-solve covering it arrives.
			for k := doneR + 1; k <= b.ResolveInterval && k <= tf.last; k++ {
				if scheduled(k) {
					st.freshR = append(st.freshR, ms(rc.at.Sub(gen[k].done)))
				}
			}
			doneR = max(doneR, b.ResolveInterval)
		}
		if tf == nil {
			r.tally.fail("follower holds no snapshot")
			continue
		}
		lastSched := tf.last
		for cfg.resolveEvery > 0 && !scheduled(lastSched) {
			lastSched--
		}
		r.tally.check(doneG >= tf.last, "%s: follower holds interval %d after the drain, generator reached %d", tenant, doneG, tf.last)
		r.tally.check(cfg.resolveEvery == 0 || doneR >= lastSched, "%s: follower holds re-solve %d after the drain, last scheduled %d", tenant, doneR, lastSched)
	}
	for _, tf := range env.tenants {
		s := tf.t.Status()
		r.tally.check(s.State != fleet.StateFailed, "tenant %s failed: %s", s.Name, s.Error)
	}

	var ingest []float64
	for _, recs := range r.gen {
		for _, g := range recs {
			ingest = append(ingest, ms(g.done.Sub(g.start)))
		}
	}
	L := p.Layer
	L["collector.ingest_ms"] = dist(ingest, 0.5, "ms")
	L["collector.records"] = value{float64(r.records), "count", 1}
	L["scenario.build_s"] = value{env.buildS, "s", len(env.tenants)}
	L["gen.late_p99_ms"] = dist(r.genLate, 0.99, "ms")
	p.metric("gen_late_p99_ms", "", r.genLate, 0.99, "ms")
	L["gen.backlog_intervals"] = value{float64(r.backlogEnd), "intervals", 1}
	if r.backlogEnd > r.backlog0+2 {
		p.Invalid = fmt.Sprintf("backlog grew from %d to %d intervals during the timed phase", r.backlog0, r.backlogEnd)
	}
	L["serve.status_200"] = value{float64(r.codes.s200.Load()), "count", 1}
	L["serve.status_304"] = value{float64(r.codes.s304.Load()), "count", 1}
	L["serve.status_429"] = value{float64(r.codes.s429.Load()), "count", 1}
	L["serve.status_5xx"] = value{float64(r.codes.s5xx.Load()), "count", 1}
	L["obs.scrape_ms"] = dist(r.scrapes, 0.5, "ms")
	if cfg.resolveEvery > 0 {
		L["sparse.bytes_per_iter"] = value{spmvBytes(env.tenants[0].def.sc), "B", 1}
	}
	if tr != nil {
		r.analyzeTraced(env, tr, p, transfer)
	}
	r.tally.into(p)
	return st
}

// spmvBytes is the computed memory traffic of one entropy iteration's
// two sparse products (R·x and Rᵀ·r) over a CSR routing matrix with
// int64 indices: values and column indices once per product, the row
// pointers, and the dense input and output vectors.
func spmvBytes(sc *netsim.Scenario) float64 {
	R := sc.Rt.R
	one := 16*R.NNZ() + 8*(R.Rows()+1) + 8*(R.Rows()+R.Cols())
	return float64(2 * one)
}

// analyzeTraced derives the per-layer metrics and spans the traced
// probes support.
func (r *streamRun) analyzeTraced(env *streamEnv, tr *tracer, p *phase, transfer []float64) {
	cfg := env.cfg
	var publish, queue, solveMs, iters, warm, hubLag []float64
	var superseded, resolves, deltas int
	var solveNs, iterSum float64
	for _, tf := range env.tenants {
		name := tf.def.spec.Name
		gen := r.gen[name]
		seen := r.engine[name]
		// stream.publish: last ingest of k -> the waiter sees interval >= k.
		i := 0
		for k := tf.first; k <= tf.last; k++ {
			for i < len(seen) && seen[i].snap.Interval < k {
				i++
			}
			if i == len(seen) {
				break
			}
			publish = append(publish, ms(seen[i].at.Sub(gen[k].done)))
			tr.child(name, k, spanPublish, gen[k].done, seen[i].at)
		}
		if cfg.resolveEvery == 0 {
			continue
		}
		// fleet.queue and solver.solve come from the publication log plus
		// the durations the published snapshots carry: interval k's
		// gravity publication parks its re-solve, and the re-solve
		// started ResolveDuration before it was published.
		gravPub, resPub := map[int]time.Time{}, map[int]time.Time{}
		versions := make([]uint64, 0, len(r.history[name]))
		for v := range r.history[name] {
			versions = append(versions, v)
		}
		sort.Slice(versions, func(i, j int) bool { return versions[i] < versions[j] })
		for _, v := range versions {
			pt := r.history[name][v]
			if _, have := gravPub[pt.Interval]; !have {
				gravPub[pt.Interval] = pt.Time
			}
			if _, have := resPub[pt.ResolveInterval]; pt.HasResolve && !have {
				resPub[pt.ResolveInterval] = pt.Time
			}
		}
		carried := map[int]stream.Snapshot{}
		for _, s := range seen {
			if s.hasResolve {
				carried[s.snap.ResolveInterval] = s.snap
			}
		}
		maxRes := -1
		for k := range resPub {
			maxRes = max(maxRes, k)
		}
		for k := tf.first; k <= tf.last && k <= maxRes; k++ {
			if (k+1)%cfg.resolveEvery != 0 {
				continue
			}
			end, solved := resPub[k]
			if !solved {
				superseded++
				continue
			}
			resolves++
			s, ok := carried[k]
			if !ok {
				continue
			}
			start := end.Add(-s.ResolveDuration)
			solveMs = append(solveMs, ms(s.ResolveDuration))
			iters = append(iters, float64(s.ResolveIterations))
			solveNs += float64(s.ResolveDuration)
			iterSum += float64(s.ResolveIterations)
			if s.ResolveWarm {
				warm = append(warm, 1)
			} else {
				warm = append(warm, 0)
			}
			tr.child(name, k, spanSolve, start, end)
			if g, ok := gravPub[k]; ok {
				queue = append(queue, ms(start.Sub(g)))
				tr.child(name, k, spanQueue, g, start)
			}
		}
	}
	for name, seen := range r.hub {
		for _, h := range seen {
			hubLag = append(hubLag, ms(h.at.Sub(h.pub)))
			tr.child(name, h.interval, spanHub, h.pub, h.at)
			if h.delta {
				deltas++
			}
		}
	}
	var enc, gz, jsonB, gzB []float64
	sampled := env.tenants[0].def.spec.Name
	for _, e := range r.encodes {
		enc = append(enc, ms(e.enc.Sub(e.start)))
		gz = append(gz, ms(e.gz.Sub(e.enc)))
		jsonB = append(jsonB, float64(e.jsonB))
		gzB = append(gzB, float64(e.gzB))
		tr.child(sampled, e.interval, spanEncode, e.start, e.enc)
		tr.child(sampled, e.interval, spanGzip, e.enc, e.gz)
	}
	L := p.Layer
	L["stream.publish_ms_p50"] = dist(publish, 0.5, "ms")
	L["stream.publish_ms_p99"] = dist(publish, 0.99, "ms")
	L["fleet.queue_wait_ms_p50"] = dist(queue, 0.5, "ms")
	L["fleet.queue_wait_ms_p99"] = dist(queue, 0.99, "ms")
	L["solver.solve_ms_p50"] = dist(solveMs, 0.5, "ms")
	L["solver.solve_ms_p99"] = dist(solveMs, 0.99, "ms")
	L["solver.iters_p50"] = dist(iters, 0.5, "count")
	if cfg.resolveEvery > 0 {
		L["fleet.resolves"] = value{float64(resolves), "count", 1}
		L["fleet.superseded"] = value{float64(superseded), "count", 1}
		L["fleet.useful_frac"] = value{float64(resolves) / float64(max(1, resolves+superseded)), "ratio", resolves + superseded}
		L["solver.warm_frac"] = value{stats.Mean(warm), "ratio", len(warm)}
		L["solver.ns_per_iter"] = value{solveNs / max(1, iterSum), "ns", len(iters)}
	}
	L["serve.hub_lag_ms_p50"] = dist(hubLag, 0.5, "ms")
	L["serve.hub_lag_ms_p99"] = dist(hubLag, 0.99, "ms")
	L["serve.delta_frac"] = value{float64(deltas) / float64(max(1, len(hubLag))), "ratio", len(hubLag)}
	L["serve.encode_ms"] = dist(enc, 0.5, "ms")
	L["serve.json_bytes"] = dist(jsonB, 0.5, "B")
	L["serve.gzip_ms"] = dist(gz, 0.5, "ms")
	L["serve.gzip_bytes"] = dist(gzB, 0.5, "B")
	L["serve.transfer_ms_p50"] = dist(transfer, 0.5, "ms")
	L["serve.transfer_ms_p99"] = dist(transfer, 0.99, "ms")
}
