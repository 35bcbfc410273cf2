package serve

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"io"
	"sync"
	"testing"
	"time"

	"repro/internal/linalg"
	"repro/internal/stream"
)

// fakeSource is a hand-driven Source: tests publish snapshots and any
// number of WaitVersion calls observe them, like a stream.Engine.
type fakeSource struct {
	mu     sync.Mutex
	latest stream.Snapshot
	have   bool
	wake   chan struct{}
}

func newFakeSource() *fakeSource { return &fakeSource{wake: make(chan struct{})} }

func (f *fakeSource) Publish(s stream.Snapshot) {
	f.mu.Lock()
	f.latest = s
	f.have = true
	close(f.wake)
	f.wake = make(chan struct{})
	f.mu.Unlock()
}

func (f *fakeSource) Latest() (stream.Snapshot, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.latest, f.have
}

func (f *fakeSource) WaitVersion(ctx context.Context, min uint64) (stream.Snapshot, error) {
	for {
		f.mu.Lock()
		if f.have && f.latest.Version >= min {
			s := f.latest
			f.mu.Unlock()
			return s, nil
		}
		wake := f.wake
		f.mu.Unlock()
		select {
		case <-wake:
		case <-ctx.Done():
			return stream.Snapshot{}, ctx.Err()
		}
	}
}

func hubSnap(version uint64) stream.Snapshot {
	v := linalg.NewVector(4)
	for i := range v {
		v[i] = float64(version)*10 + float64(i)
	}
	return stream.Snapshot{
		Version: version, Interval: int(version), Window: 3,
		Gravity: v, Mean: v.Clone(), Fanouts: v.Clone(),
		Time: time.Unix(1700000000+int64(version), 0).UTC(),
	}
}

// waitWaiters blocks until n long-poll waiters are parked on h, so a
// test provably exercises the parked path rather than the fast path.
func waitWaiters(t *testing.T, h *Hub, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for h.Stats().Waiters < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d waiters parked", h.Stats().Waiters, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestHubFanout: many concurrent waiters, one publication — every
// waiter receives the same shared encoded entry, whose bytes are the
// snapshot's one-time encoding.
func TestHubFanout(t *testing.T) {
	src := newFakeSource()
	h := NewHub(src, HubConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go h.Run(ctx)

	const waiters = 64
	got := make(chan *Entry, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e, err := h.WaitMin(ctx, 1)
			if err != nil {
				t.Errorf("WaitMin: %v", err)
				return
			}
			got <- e
		}()
	}
	waitWaiters(t, h, waiters)
	snap := hubSnap(1)
	src.Publish(snap)
	wg.Wait()
	close(got)

	want, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	var first *Entry
	n := 0
	for e := range got {
		n++
		if first == nil {
			first = e
		}
		if e != first {
			t.Fatal("waiters received different entry pointers; encoding was not shared")
		}
	}
	if n != waiters {
		t.Fatalf("%d of %d waiters served", n, waiters)
	}
	if string(first.JSON) != string(want) {
		t.Fatalf("entry bytes differ from json.Marshal(snapshot)+\\n")
	}
	if first.ETag != `"v1"` {
		t.Fatalf("etag %q, want %q", first.ETag, `"v1"`)
	}
	if st := h.Stats(); st.Version != 1 || st.ServedWaits < waiters {
		t.Fatalf("stats after fanout: %+v", st)
	}
}

// TestHubWaiterCap: with MaxWaiters=2, a third concurrent waiter is
// refused with ErrTooManyWaiters, and the parked two still complete.
func TestHubWaiterCap(t *testing.T) {
	src := newFakeSource()
	h := NewHub(src, HubConfig{MaxWaiters: 2})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go h.Run(ctx)

	results := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := h.WaitMin(ctx, 1)
			results <- err
		}()
	}
	waitWaiters(t, h, 2)
	if _, err := h.WaitMin(ctx, 1); err != ErrTooManyWaiters {
		t.Fatalf("third waiter got %v, want ErrTooManyWaiters", err)
	}
	// Subscribe counts against the same cap.
	if _, err := h.Subscribe(); err != ErrTooManyWaiters {
		t.Fatalf("subscribe at cap got %v, want ErrTooManyWaiters", err)
	}
	src.Publish(hubSnap(1))
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Fatalf("parked waiter failed: %v", err)
		}
	}
}

// TestHubLazyPrime: a hub whose Run loop never observed anything (the
// restored-from-checkpoint boot race) still serves the source's latest
// snapshot on the first read.
func TestHubLazyPrime(t *testing.T) {
	src := newFakeSource()
	src.Publish(hubSnap(7))
	h := NewHub(src, HubConfig{}) // Run intentionally not started
	e := h.Current()
	if e == nil || e.Version != 7 {
		t.Fatalf("Current() = %+v, want primed version 7", e)
	}
	if e2, err := h.WaitMin(context.Background(), 7); err != nil || e2 != e {
		t.Fatalf("WaitMin fast path gave (%v, %v), want the primed entry", e2, err)
	}
	// No snapshot at all: Current is nil, not a panic.
	empty := NewHub(newFakeSource(), HubConfig{})
	if empty.Current() != nil {
		t.Fatal("empty source primed an entry")
	}
}

// TestHubWaitMinCancel: a cancelled waiter leaves no registration
// behind, and the cancellation error is the context's.
func TestHubWaitMinCancel(t *testing.T) {
	h := NewHub(newFakeSource(), HubConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := h.WaitMin(ctx, 1)
		done <- err
	}()
	waitWaiters(t, h, 1)
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("cancelled WaitMin returned %v", err)
	}
	if st := h.Stats(); st.Waiters != 0 {
		t.Fatalf("%d waiters left registered after cancellation", st.Waiters)
	}
}

// TestHubSubscribeAndDrop: subscribers receive every publication in
// order; one that stops draining is dropped (channel closed) instead of
// stalling the broadcast.
func TestHubSubscribeAndDrop(t *testing.T) {
	h := NewHub(newFakeSource(), HubConfig{SubscriberBuffer: 2})
	live, err := h.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	stuck, err := h.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	for v := uint64(1); v <= 4; v++ {
		h.observe(hubSnap(v))
		if e, ok := <-live.C; !ok || e.Version != v {
			t.Fatalf("live subscriber got (%v, %v) at version %d", e, ok, v)
		}
	}
	// stuck never drained its buffer of 2: version 3's broadcast must
	// have dropped it.
	var versions []uint64
	for e := range stuck.C { // closed by the hub
		versions = append(versions, e.Version)
	}
	if len(versions) != 2 || versions[0] != 1 || versions[1] != 2 {
		t.Fatalf("dropped subscriber drained %v, want [1 2]", versions)
	}
	if st := h.Stats(); st.DroppedSubscribers != 1 || st.Subscribers != 1 {
		t.Fatalf("stats after drop: %+v", st)
	}
	live.Cancel()
	if st := h.Stats(); st.Subscribers != 0 {
		t.Fatalf("cancel left %d subscribers", st.Subscribers)
	}
	stuck.Cancel() // idempotent after the hub-side drop
}

// TestHubDeltaChain: consecutive small drifts produce a cache whose
// delta chain from an old version applies back to the latest snapshot
// byte-exactly.
func TestHubDeltaChain(t *testing.T) {
	h := NewHub(newFakeSource(), HubConfig{})
	// Vectors large enough that a one-coordinate drift beats the size
	// ratio (a 4-element snapshot's delta never would — the scalar block
	// dominates, and the ratio fallback correctly serves full bodies).
	base := linalg.NewVector(200)
	for i := range base {
		base[i] = float64(i) + 0.5
	}
	snaps := map[uint64]stream.Snapshot{}
	for v := uint64(1); v <= 5; v++ {
		s := hubSnap(1)
		s.Version = v
		s.Interval = int(v)
		s.Gravity = base.Clone()
		s.Gravity[0] += float64(v)
		s.Mean = base.Clone()
		s.Fanouts = base.Clone()
		snaps[v] = s
		h.observe(s)
	}
	chain := h.Cache().DeltaChain(2, 1<<20)
	if len(chain) != 3 {
		t.Fatalf("chain from v2 has %d steps, want 3", len(chain))
	}
	cur := snaps[2]
	for _, raw := range chain {
		d, err := DecodeDelta(raw)
		if err != nil {
			t.Fatal(err)
		}
		if cur, err = Apply(cur, d); err != nil {
			t.Fatal(err)
		}
	}
	gotB, _ := json.Marshal(cur)
	wantB, _ := json.Marshal(snaps[5])
	if string(gotB) != string(wantB) {
		t.Fatal("delta chain did not reproduce the latest snapshot")
	}
	// Chain to the latest version itself is empty but present.
	if c := h.Cache().DeltaChain(5, 1<<20); c == nil || len(c) != 0 {
		t.Fatalf("chain from the latest version = %v, want empty non-nil", c)
	}
	// A byte budget below the chain size reports nil (serve full).
	if c := h.Cache().DeltaChain(2, 1); c != nil {
		t.Fatal("over-budget chain did not fall back to full")
	}
	// An evicted-from base breaks the chain.
	if c := h.Cache().DeltaChain(0, 1<<20); c != nil {
		t.Fatal("chain from an unknown version did not fall back to full")
	}
}

// TestCacheEviction: the cache retains only its capacity, newest wins.
func TestCacheEviction(t *testing.T) {
	c := NewCache(3)
	for v := uint64(1); v <= 5; v++ {
		e, err := NewEntry(hubSnap(v), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		c.Add(e)
	}
	if c.Len() != 3 {
		t.Fatalf("cache holds %d versions, want 3", c.Len())
	}
	if _, ok := c.Get(2); ok {
		t.Fatal("evicted version still present")
	}
	if e, ok := c.Get(5); !ok || c.Latest() != e {
		t.Fatal("latest version missing or inconsistent")
	}
}

// gunzip inflates one gzip body.
func gunzip(t *testing.T, gz []byte) []byte {
	t.Helper()
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestEntryGzip: the gzip body is computed once and round-trips to the
// JSON body byte for byte.
func TestEntryGzip(t *testing.T) {
	e, err := NewEntry(hubSnap(1), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	gz1 := e.Gzip()
	gz2 := e.Gzip()
	if len(gz1) == 0 {
		t.Fatal("empty gzip body")
	}
	if &gz1[0] != &gz2[0] {
		t.Fatal("gzip recomputed per call")
	}
	if !bytes.Equal(gunzip(t, gz1), e.JSON) {
		t.Fatal("gzip body does not inflate to the JSON body")
	}
}

// TestEntryGzipConcurrent: entries of different sizes compressing at
// once through the shared writer pool, round after round, each inflate
// to their own JSON — no writer state leaks from one entry to another,
// and concurrent callers of one entry share a single encoding.
func TestEntryGzipConcurrent(t *testing.T) {
	const callers = 3
	sizes := []int{4, 300, 3000}
	for round := 0; round < 4; round++ {
		var entries []*Entry
		for k := 0; k < 2; k++ {
			for _, n := range sizes {
				v := linalg.NewVector(n)
				for i := range v {
					v[i] = float64(round*1000+k*100+i) * 0.37
				}
				e, err := NewEntry(stream.Snapshot{
					Version: uint64(len(entries) + 1), Gravity: v, Mean: v, Fanouts: v,
					Time: time.Unix(1700000000, 0).UTC(),
				}, nil, 0)
				if err != nil {
					t.Fatal(err)
				}
				entries = append(entries, e)
			}
		}
		got := make([][callers][]byte, len(entries))
		var wg sync.WaitGroup
		for i, e := range entries {
			for c := 0; c < callers; c++ {
				wg.Add(1)
				go func(i, c int, e *Entry) {
					defer wg.Done()
					got[i][c] = e.Gzip()
				}(i, c, e)
			}
		}
		wg.Wait()
		for i, e := range entries {
			for c := 1; c < callers; c++ {
				if &got[i][c][0] != &got[i][0][0] {
					t.Fatalf("round %d entry %d: concurrent callers got different encodings", round, i)
				}
			}
			if !bytes.Equal(gunzip(t, got[i][0]), e.JSON) {
				t.Fatalf("round %d entry %d (%d pairs): gzip body does not inflate to its own JSON", round, i, len(e.JSON))
			}
		}
	}
}
