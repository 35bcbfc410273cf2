package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the metric
// tables the program reports from in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(doc.EndToEnd), len(endToEnd))
	}
	for i, m := range doc.EndToEnd {
		if d := endToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, program has %+v", i, m, d)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range doc.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, program has %+v", i, m, d)
		}
	}
}

// TestSmoke runs every workload briefly, untraced and traced, and checks
// the result line carries exactly the declared metrics.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for name := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(name+"/trace"+trace, func(t *testing.T) {
				var out, errb bytes.Buffer
				args := []string{"--workload", name, "--seed", "7", "--seconds", "2", "--trace", trace, "--smoke", "--trace-dir", t.TempDir()}
				if code := run(args, &out, &errb); code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not a result: %v", err)
				}
				want := endToEnd
				if trace == "1" {
					want = perLayer
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 || len(res.Metrics) != len(want) {
					t.Fatalf("result %+v, want correct with %d metrics", res, len(want))
				}
				for _, m := range want {
					if got, ok := res.Metrics[m.name]; !ok || got.Unit != m.unit {
						t.Errorf("metric %s = %+v, want unit %s", m.name, got, m.unit)
					}
				}
			})
		}
	}
}

// TestFailedCheckFailsRun: a failed output check makes the run incorrect.
func TestFailedCheckFailsRun(t *testing.T) {
	var ck tally
	ck.check(true, "fine")
	ck.check(checkVec("gravity", []float64{1, -2}, 2) == "", "negative entry")
	p := newPhase()
	ck.into(p)
	if p.Attempted != 2 || p.Failed != 1 || len(p.Failures) != 1 {
		t.Fatalf("phase tally %d/%d %q", p.Failed, p.Attempted, p.Failures)
	}
}

// TestSelfTime: a root span's self time excludes the union of its
// children, overlaps counted once.
func TestSelfTime(t *testing.T) {
	tr := newTracer("w")
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	tr.root("a", 1, at(0))
	tr.child("a", 1, spanIngest, at(0), at(2))
	tr.child("a", 1, spanPublish, at(1), at(4))
	tr.child("a", 1, spanTransfer, at(6), at(10))
	tr.child("a", 2, spanIngest, at(0), at(5)) // no root: dropped
	self := tr.selfTimes()
	if got := self[spanRoot]; len(got) != 1 || got[0] != 2 {
		t.Errorf("root self time %v, want [2]", got)
	}
	if got := self[spanIngest]; len(got) != 1 || got[0] != 2 {
		t.Errorf("ingest self time %v, want [2]", got)
	}
}

// TestMergeLayers: the traced segments' counts add up, every other
// per-layer metric is the median over the segments.
func TestMergeLayers(t *testing.T) {
	var ps []*phase
	for _, v := range []float64{3, 1, 2} {
		p := newPhase()
		p.Layer["fleet.resolves"] = value{v * 10, "count", 1}
		p.Layer["solver.iters_p50"] = value{v * 100, "count", 1}
		p.Layer["solver.solve_ms_p50"] = value{v, "ms", 4}
		ps = append(ps, p)
	}
	got := mergeLayers(ps)
	if v := got["fleet.resolves"]; v.V != 60 || v.N != 3 {
		t.Errorf("fleet.resolves = %+v, want the sum 60", v)
	}
	if v := got["solver.iters_p50"]; v.V != 200 {
		t.Errorf("solver.iters_p50 = %+v, want the median 200", v)
	}
	if v := got["solver.solve_ms_p50"]; v.V != 2 || v.N != 12 {
		t.Errorf("solver.solve_ms_p50 = %+v, want the median 2 over 12 samples", v)
	}
}
