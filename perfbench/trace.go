package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span names, one per layer boundary the benchmark times from outside.
// gen.interval is the root of every trace; the others hang below it.
const (
	spanRoot     = "gen.interval"
	spanIngest   = "collector.ingest"
	spanPublish  = "stream.publish"
	spanQueue    = "fleet.queue"
	spanSolve    = "solver.solve"
	spanHub      = "serve.hub"
	spanEncode   = "serve.encode"
	spanGzip     = "serve.gzip"
	spanTransfer = "serve.transfer"
)

var spanNames = []string{spanRoot, spanIngest, spanPublish, spanQueue, spanSolve, spanHub, spanEncode, spanGzip, spanTransfer}

// span is one recorded interval of work. Trace is
// "workload/tenant/interval"; Parent is the ID of the causing span (0
// for a root).
type span struct {
	Trace  string    `json:"trace"`
	ID     int       `json:"id"`
	Parent int       `json:"parent"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

// tracer keeps spans in memory. A nil *tracer records nothing, which is
// how untraced runs skip it.
type tracer struct {
	workload string
	mu       sync.Mutex
	spans    []span
	roots    map[string]int // trace -> root span ID
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, roots: map[string]int{}}
}

func (t *tracer) traceID(tenant string, interval int) string {
	return fmt.Sprintf("%s/%s/%d", t.workload, tenant, interval)
}

// root opens the trace of one generated interval; the root's end is
// fixed up in finish to cover its children.
func (t *tracer) root(tenant string, interval int, due time.Time) {
	if t == nil {
		return
	}
	id := t.traceID(tenant, interval)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Trace: id, ID: len(t.spans) + 1, Name: spanRoot, Start: due, End: due})
	t.roots[id] = len(t.spans)
}

// child records one layer span below the interval's root; it is dropped
// when the interval has no root (warm-up intervals are not traced).
func (t *tracer) child(tenant string, interval int, name string, start, end time.Time) {
	if t == nil || end.Before(start) {
		return
	}
	id := t.traceID(tenant, interval)
	t.mu.Lock()
	defer t.mu.Unlock()
	parent, ok := t.roots[id]
	if !ok {
		return
	}
	t.spans = append(t.spans, span{Trace: id, ID: len(t.spans) + 1, Parent: parent, Name: name, Start: start, End: end})
	if r := &t.spans[parent-1]; end.After(r.End) {
		r.End = end
	}
}

// selfTimes returns every span's self time in ms by span name: its
// duration minus the part of it covered by its children.
func (t *tracer) selfTimes() map[string][]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string][]float64{}
	for _, s := range t.spans {
		covered := unionWithin(kids[s.ID], s.Start, s.End)
		out[s.Name] = append(out[s.Name], ms(s.End.Sub(s.Start)-covered))
	}
	return out
}

// unionWithin is the total length of the union of spans, clipped to
// [lo, hi].
func unionWithin(spans []span, lo, hi time.Time) time.Duration {
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(spans))
	for _, s := range spans {
		a, b := s.Start, s.End
		if a.Before(lo) {
			a = lo
		}
		if b.After(hi) {
			b = hi
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			total += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// finish reports per-span-name self time medians into p and writes the
// spans as JSON lines to dir/<file>.jsonl.
func (t *tracer) finish(p *phase, dir, file string) (string, error) {
	self := t.selfTimes()
	for _, name := range spanNames {
		p.Layer["self."+name+"_ms_p50"] = dist(self[name], 0.5, "ms")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, file+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return "", fmt.Errorf("trace write: %w", err)
		}
	}
	n := len(t.spans)
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("trace write: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("trace write: %w", err)
	}
	return fmt.Sprintf("%s (%d spans)", path, n), nil
}
