// Command perfbench is the repository's benchmark: two workloads that
// drive the production code paths in process (fleet.New + AddFeed and
// serve.New(...).Handler() behind a loopback listener) from a seeded
// generator, check every output, and print one JSON result line.
//
//	go run . --workload fleet-freshness --seed 1 --seconds 30 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
// and traced segments, prints the per-layer metrics from the traced ones
// (spans are written under --trace-dir) and the tracing overhead on
// every end-to-end metric. README.md maps each reported name to its
// definition on each workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metricDef is one BENCHMARK.json metric: its unit and direction.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only
}

// endToEnd are the gated metrics every workload reports (README.md
// gives each slot's definition per workload).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"freshness_p50_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_interval", "ms", "lower", 0.25},
	{"quality_ratio", "ratio", "lower", 0.25},
	{"heap_peak_mb", "MB", "lower", 0.25},
	{"ok_frac", "ratio", "higher", 0.01},
}

// perLayer are the traced run's metrics; a layer a workload bypasses
// reports 0 with no samples.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{name: "collector.ingest_ms", unit: "ms", better: "lower"},
		{name: "collector.records", unit: "count", better: "higher"},
		{name: "stream.publish_ms_p50", unit: "ms", better: "lower"},
		{name: "stream.publish_ms_p99", unit: "ms", better: "lower"},
		{name: "fleet.queue_wait_ms_p50", unit: "ms", better: "lower"},
		{name: "fleet.queue_wait_ms_p99", unit: "ms", better: "lower"},
		{name: "fleet.resolves", unit: "count", better: "higher"},
		{name: "fleet.superseded", unit: "count", better: "lower"},
		{name: "fleet.useful_frac", unit: "ratio", better: "higher"},
		{name: "solver.solve_ms_p50", unit: "ms", better: "lower"},
		{name: "solver.solve_ms_p99", unit: "ms", better: "lower"},
		{name: "solver.iters_p50", unit: "count", better: "lower"},
		{name: "solver.warm_frac", unit: "ratio", better: "higher"},
		{name: "solver.ns_per_iter", unit: "ns", better: "lower"},
		{name: "sparse.bytes_per_iter", unit: "B", better: "lower"},
		{name: "serve.hub_lag_ms_p50", unit: "ms", better: "lower"},
		{name: "serve.hub_lag_ms_p99", unit: "ms", better: "lower"},
		{name: "serve.encode_ms", unit: "ms", better: "lower"},
		{name: "serve.json_bytes", unit: "B", better: "lower"},
		{name: "serve.gzip_ms", unit: "ms", better: "lower"},
		{name: "serve.gzip_bytes", unit: "B", better: "lower"},
		{name: "serve.delta_frac", unit: "ratio", better: "higher"},
		{name: "serve.transfer_ms_p50", unit: "ms", better: "lower"},
		{name: "serve.transfer_ms_p99", unit: "ms", better: "lower"},
		{name: "serve.status_200", unit: "count", better: "higher"},
		{name: "serve.status_304", unit: "count", better: "higher"},
		{name: "serve.status_429", unit: "count", better: "lower"},
		{name: "serve.status_5xx", unit: "count", better: "lower"},
		{name: "obs.scrape_ms", unit: "ms", better: "lower"},
		{name: "scenario.build_s", unit: "s", better: "lower"},
		{name: "go.gc_cpu_frac", unit: "ratio", better: "lower"},
		{name: "go.alloc_mb_per_s", unit: "MB/s", better: "lower"},
		{name: "gen.late_p99_ms", unit: "ms", better: "lower"},
		{name: "gen.backlog_intervals", unit: "intervals", better: "lower"},
	}
	for _, s := range spanNames {
		defs = append(defs, metricDef{name: "self." + s + "_ms_p50", unit: "ms", better: "lower"})
	}
	for _, m := range endToEnd {
		defs = append(defs, metricDef{name: "trace.overhead." + m.name, unit: "ratio", better: "lower"})
	}
	return defs
}()

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// run executes one benchmark invocation and returns the exit code: 0 for
// a correct run, 1 for failed output checks or an invalid open loop, 2
// for usage or set-up errors (no result line).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: fleet-freshness or read-path")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "length of the timed phase in seconds")
	traceFlag := fs.Int("trace", 0, "1: traced run reporting per-layer metrics and tracing overhead")
	smoke := fs.Bool("smoke", false, "short sizes, for the benchmark's own tests")
	traceDir := fs.String("trace-dir", filepath.Join(".bench_build", "traces"), "directory traced runs write their spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (fleet-freshness or read-path), --seconds > 0 and --trace 0|1\n")
		return 2
	}
	rc := runConfig{seed: *seed, smoke: *smoke}
	dur := time.Duration(*seconds * float64(time.Second))
	setups := 7
	if *smoke {
		setups = 1
	}
	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%g trace=%d\n", *name, *seed, *seconds, *traceFlag)

	res := result{Metrics: map[string]jsonMetric{}}
	var phases []*phase
	if *traceFlag == 0 {
		p, err := w(rc, dur, nil, setups)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
			return 2
		}
		phases = append(phases, p)
		printPhase(stdout, "", p)
		for _, m := range endToEnd {
			v, ok := p.E2E[m.name]
			if !ok {
				fmt.Fprintf(stderr, "perfbench: %s reported no %s\n", *name, m.name)
				return 2
			}
			res.Metrics[m.name] = jsonMetric{v.V, m.unit}
		}
	} else {
		plain, traced, err := tracedRun(w, rc, dur, *name, *seed, *traceDir, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
			return 2
		}
		layer := mergeLayers(traced)
		for _, m := range endToEnd {
			var rs []float64
			for j := range plain {
				if a := plain[j].E2E[m.name].V; a != 0 {
					rs = append(rs, traced[j].E2E[m.name].V/a-1)
				}
			}
			layer["trace.overhead."+m.name] = value{quantile(rs, 0.5), "ratio", len(rs)}
		}
		for _, m := range perLayer {
			v := layer[m.name]
			printValue(stdout, "layer", m.name, value{v.V, m.unit, v.N})
			res.Metrics[m.name] = jsonMetric{v.V, m.unit}
		}
		phases = append(append(phases, plain...), traced...)
	}

	res.Correct = true
	for _, p := range phases {
		res.Attempted += p.Attempted
		res.Failed += p.Failed
		for _, f := range p.Failures {
			fmt.Fprintf(stderr, "perfbench: check failed: %s\n", f)
		}
		if p.Invalid != "" {
			fmt.Fprintf(stderr, "perfbench: invalid run: %s\n", p.Invalid)
			res.Correct = false
		}
	}
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(stderr, "perfbench: %s is %v\n", k, m.Value)
			res.Metrics[k] = jsonMetric{0, m.Unit}
			res.Correct = false
		}
	}
	if res.Failed > 0 || res.Attempted == 0 {
		res.Correct = false
	}
	if res.Attempted == 0 {
		res.Attempted = 1
		res.Failed = 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// tracedRun runs the workload in untraced and traced segments of equal
// length that alternate in the order ABBA ABBA ..., each with its own
// set-up, so that a change in the host's speed during the run falls on
// both sides alike. Segment j of each side forms pair j.
func tracedRun(w workload, rc runConfig, dur time.Duration, name string, seed int64, dir string, out io.Writer) (plain, traced []*phase, err error) {
	pairs := 3
	if rc.smoke {
		pairs = 1
	}
	seg := dur / time.Duration(2*pairs)
	for i := 0; i < 2*pairs; i++ {
		if i%4 == 1 || i%4 == 2 {
			tr := newTracer(name)
			p, err := w(rc, seg, tr, 1)
			if err != nil {
				return nil, nil, err
			}
			where, err := tr.finish(p, dir, fmt.Sprintf("%s-seed%d-seg%d", name, seed, len(traced)))
			if err != nil {
				return nil, nil, err
			}
			fmt.Fprintf(out, "spans written to %s\n", where)
			printPhase(out, fmt.Sprintf("traced%d ", len(traced)), p)
			traced = append(traced, p)
		} else {
			p, err := w(rc, seg, nil, 1)
			if err != nil {
				return nil, nil, err
			}
			printPhase(out, fmt.Sprintf("untraced%d ", len(plain)), p)
			plain = append(plain, p)
		}
	}
	return plain, traced, nil
}

// mergeLayers combines the traced segments' per-layer metrics: counts
// are summed, every other metric is the median over the segments.
func mergeLayers(ps []*phase) map[string]value {
	out := map[string]value{}
	for _, m := range perLayer {
		var vs []float64
		var sum float64
		n := 0
		for _, p := range ps {
			if v, ok := p.Layer[m.name]; ok {
				vs = append(vs, v.V)
				sum += v.V
				n += v.N
			}
		}
		if m.unit == "count" && !strings.HasSuffix(m.name, "_p50") {
			out[m.name] = value{sum, m.unit, n}
		} else {
			out[m.name] = value{quantile(vs, 0.5), m.unit, n}
		}
	}
	return out
}

// printPhase prints the workload's metrics under their descriptive
// names, then the BENCHMARK.json slots they fill.
func printPhase(w io.Writer, prefix string, p *phase) {
	for _, n := range p.Named {
		printValue(w, prefix+"metric", n.Name, n.value)
	}
	slots := make([]string, 0, len(p.E2E))
	for k := range p.E2E {
		slots = append(slots, k)
	}
	sort.Strings(slots)
	for _, k := range slots {
		printValue(w, prefix+"slot", k, p.E2E[k])
	}
	fmt.Fprintf(w, "%schecks attempted=%d failed=%d\n", prefix, p.Attempted, p.Failed)
}
