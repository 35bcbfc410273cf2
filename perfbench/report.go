package main

import (
	"fmt"
	"io"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"repro/internal/stats"
)

// value is one reported number with its unit and the sample count
// behind it (0 when the layer is not exercised by the workload).
type value struct {
	V    float64
	Unit string
	N    int
}

// phase is everything one timed phase measured: end-to-end slots, the
// named workload metrics they map to, per-layer metrics, and the
// operation tally behind correct/attempted/failed.
type phase struct {
	E2E   map[string]value // keyed by BENCHMARK.json end_to_end names
	Named []namedValue     // workload metrics under their descriptive names
	Layer map[string]value // keyed by BENCHMARK.json per_layer names

	Attempted int
	Failed    int
	Failures  []string // first few failure messages
	Invalid   string   // non-empty: the open loop fell behind
}

type namedValue struct {
	Name string
	value
}

func newPhase() *phase {
	return &phase{E2E: map[string]value{}, Layer: map[string]value{}}
}

// named records a workload metric under its descriptive name and, when
// slot is non-empty, under the BENCHMARK.json slot it fills.
func (p *phase) named(name, slot string, v value) {
	p.Named = append(p.Named, namedValue{name, v})
	if slot != "" {
		p.E2E[slot] = v
	}
}

// metric records the q-quantile of the samples xs under name and, when
// slot is non-empty, under the BENCHMARK.json slot it fills.
func (p *phase) metric(name, slot string, xs []float64, q float64, unit string) {
	p.named(name, slot, dist(xs, q, unit))
}

// tally is a concurrency-safe attempted/failed counter that keeps the
// first few failure messages for the report.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	msgs      []string
}

func (t *tally) ok() {
	t.mu.Lock()
	t.attempted++
	t.mu.Unlock()
}

func (t *tally) fail(format string, args ...any) {
	t.mu.Lock()
	t.attempted++
	t.failed++
	if len(t.msgs) < 8 {
		t.msgs = append(t.msgs, fmt.Sprintf(format, args...))
	}
	t.mu.Unlock()
}

// check counts one output check: ok when cond holds, a failure otherwise.
func (t *tally) check(cond bool, format string, args ...any) {
	if cond {
		t.ok()
	} else {
		t.fail(format, args...)
	}
}

func (t *tally) into(p *phase) {
	t.mu.Lock()
	defer t.mu.Unlock()
	p.Attempted += t.attempted
	p.Failed += t.failed
	p.Failures = append(p.Failures, t.msgs...)
}

// quantile is stats.Quantile, but 0 for no samples, so a layer a
// workload bypasses reports 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Quantile(xs, q)
}

func dist(xs []float64, q float64, unit string) value {
	return value{quantile(xs, q), unit, len(xs)}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runtimeSampler samples heap in use every 20 ms over a timed phase and
// reads the process CPU time, the GC CPU share and the allocation volume
// at both ends of it.
type runtimeSampler struct {
	stop chan struct{}
	done chan struct{}
	t0   time.Time
	cpu0 time.Duration
	s0   []metrics.Sample
	peak float64
	n    int
}

// processCPU is the CPU time the kernel charged to this process, user
// and system. Time the hypervisor steals from the VM is not in it, which
// makes it steadier than wall time on a shared host.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

var runtimeMetricNames = []string{
	"/memory/classes/heap/objects:bytes",
	"/memory/classes/heap/unused:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func heapInuse(s []metrics.Sample) float64 {
	return float64(s[0].Value.Uint64() + s[1].Value.Uint64())
}

func startRuntimeSampler() *runtimeSampler {
	r := &runtimeSampler{stop: make(chan struct{}), done: make(chan struct{}), t0: time.Now(), cpu0: processCPU(), s0: readRuntime()}
	r.peak = heapInuse(r.s0)
	go func() {
		defer close(r.done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-tick.C:
				if h := heapInuse(readRuntime()); h > r.peak {
					r.peak = h
				}
				r.n++
			}
		}
	}()
	return r
}

// finish stops the sampler and records heap_peak_mb, the process CPU
// time per generated interval, and the go.* layer metrics into p.
func (r *runtimeSampler) finish(p *phase, intervals int) {
	close(r.stop)
	<-r.done
	cpu := processCPU() - r.cpu0
	p.named("cpu_ms_per_interval", "cpu_ms_per_interval", value{ms(cpu) / float64(max(1, intervals)), "ms", intervals})
	s1 := readRuntime()
	if h := heapInuse(s1); h > r.peak {
		r.peak = h
	}
	secs := time.Since(r.t0).Seconds()
	gc := s1[2].Value.Float64() - r.s0[2].Value.Float64()
	total := s1[3].Value.Float64() - r.s0[3].Value.Float64()
	allocs := float64(s1[4].Value.Uint64() - r.s0[4].Value.Uint64())
	peak := value{r.peak / (1 << 20), "MB", r.n + 1}
	p.named("heap_peak_mb", "heap_peak_mb", peak)
	if total > 0 {
		p.Layer["go.gc_cpu_frac"] = value{gc / total, "ratio", 1}
	}
	p.Layer["go.alloc_mb_per_s"] = value{allocs / (1 << 20) / secs, "MB/s", 1}
}

// finishE2E derives the common end-to-end slots every workload reports.
func finishE2E(p *phase, setups []float64) {
	p.named("setup_s", "setup_s", value{quantile(setups, 0.5), "s", len(setups)})
	okFrac := 1.0
	if p.Attempted > 0 {
		okFrac = 1 - float64(p.Failed)/float64(p.Attempted)
	}
	p.named("error_frac", "", value{1 - okFrac, "ratio", p.Attempted})
	p.E2E["ok_frac"] = value{okFrac, "ratio", p.Attempted}
}

func printValue(w io.Writer, kind, name string, v value) {
	fmt.Fprintf(w, "%-7s %-30s %14.6g %-6s n=%d\n", kind, name, v.V, v.Unit, v.N)
}
