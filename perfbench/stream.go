package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/collector"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/linalg"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/serve"
	"repro/internal/stream"
)

// tenantDef is one tenant of a streaming workload: its scenario, the
// demand series the generator replays into its store, and its spec.
type tenantDef struct {
	spec    fleet.TenantSpec
	sc      *netsim.Scenario
	demands []linalg.Vector
}

// streamConfig describes a streaming workload: its tenants, the HTTP
// followers, the generator period, and the optional extras.
type streamConfig struct {
	build func() ([]tenantDef, float64, error) // tenants + scenario build seconds
	// followers long-poll the tenants over HTTP, one connection each;
	// with rotate > 0 each moves on to its next tenant every rotate.
	followers int
	rotate    time.Duration
	period    time.Duration
	// groups > 1 splits the tenants into groups that ingest on the same
	// tick; group g is due g/groups of a period after group 0.
	groups int
	window int
	// resolveEvery > 0 means the tenants re-solve every that many
	// intervals and setup waits for the first cold re-solve.
	resolveEvery int
	pollRate     float64       // conditional GETs per second; 0 = no poller
	scrapeEvery  time.Duration // in-process registry render; 0 = none
	encodeEvery  int           // traced: encode/gzip every Nth observed publication
}

// streamEnv is one running fleet + server + loopback listener.
type streamEnv struct {
	cfg     streamConfig
	tenants []*tenantFeed
	srv     *serve.Server
	reg     *obs.Registry
	base    string
	hs      *http.Server
	cancel  context.CancelFunc
	runErr  chan error
	srvErr  chan error
	buildS  float64
	clients []*http.Transport
}

type tenantFeed struct {
	def   tenantDef
	store *collector.Store
	t     *fleet.Tenant
	// next is the next interval the generator produces; first and last
	// bound the intervals of the current timed phase.
	next        atomic.Int64
	first, last int
}

func (tf *tenantFeed) ingest(k int) {
	d := tf.def.demands[k%len(tf.def.demands)]
	for p, mbps := range d {
		tf.store.Ingest(collector.RateRecord{LSP: p, Interval: k, RateMbps: mbps, Poller: "perfbench"})
	}
}

// startStream builds the tenants, starts the fleet, the server and the
// listener, fills every tenant's window and waits for the first cold
// re-solve: the whole set-up that setup_s times.
func startStream(cfg streamConfig) (*streamEnv, error) {
	defs, buildS, err := cfg.build()
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	f := fleet.New(runner.NewPool(0), fleet.Options{Metrics: reg})
	env := &streamEnv{cfg: cfg, reg: reg, buildS: buildS, runErr: make(chan error, 1), srvErr: make(chan error, 1)}
	for _, d := range defs {
		store := collector.NewStore(d.sc.Net.NumPairs())
		t, err := f.AddFeed(d.spec, d.sc, fleet.Feed{Store: store, Collect: func(ctx context.Context) error {
			<-ctx.Done()
			return ctx.Err()
		}})
		if err != nil {
			return nil, err
		}
		env.tenants = append(env.tenants, &tenantFeed{def: d, store: store, t: t})
	}
	ctx, cancel := context.WithCancel(context.Background())
	env.cancel = cancel
	env.srv = serve.New(ctx, f, serve.Options{Metrics: reg})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cancel()
		return nil, fmt.Errorf("listen: %w", err)
	}
	env.base = "http://" + ln.Addr().String()
	env.hs = &http.Server{Handler: env.srv.Handler()}
	go func() { env.srvErr <- env.hs.Serve(ln) }()
	go func() { env.runErr <- f.Run(ctx) }()

	// A tenant of group g fills its window plus g mod resolveEvery
	// intervals, so the groups' re-solve cadences are out of phase while
	// the tenants of one group park their re-solves together.
	for i, tf := range env.tenants {
		warm := cfg.window
		if cfg.resolveEvery > 0 {
			warm += cfg.group(i, len(env.tenants)) % cfg.resolveEvery
		}
		for k := 0; k < warm; k++ {
			tf.ingest(k)
		}
		tf.next.Store(int64(warm))
	}
	wctx, wcancel := context.WithTimeout(ctx, 60*time.Second)
	defer wcancel()
	for _, tf := range env.tenants {
		// The last warm-up interval whose window a re-solve was scheduled
		// for; setup ends once every tenant has published it.
		last := int(tf.next.Load()) - 1
		lastResolve := -1
		if cfg.resolveEvery > 0 {
			lastResolve = ((last+1)/cfg.resolveEvery)*cfg.resolveEvery - 1
		}
		eng := tf.t.Engine()
		for v := uint64(0); ; {
			snap, err := eng.WaitVersion(wctx, v+1)
			if err != nil {
				env.close()
				return nil, fmt.Errorf("warm-up of %s: %w", tf.def.spec.Name, err)
			}
			v = snap.Version
			if snap.Interval == last && (lastResolve < 0 || (snap.Resolve != nil && snap.ResolveInterval == lastResolve)) {
				break
			}
		}
	}
	// Each follower's connection is opened during set-up, so the timed
	// phase starts warm.
	for i := 0; i < cfg.followers; i++ {
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
		env.clients = append(env.clients, tr)
		resp, err := (&http.Client{Transport: tr}).Get(env.base + "/v1/t/" + env.tenants[i].def.spec.Name + "/snapshot")
		if err != nil {
			env.close()
			return nil, fmt.Errorf("first fetch: %w", err)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			env.close()
			return nil, fmt.Errorf("first fetch: %w", err)
		}
	}
	return env, nil
}

// group is the tick group of tenant i of n.
func (cfg streamConfig) group(i, n int) int {
	return i * max(1, cfg.groups) / n
}

// close stops the server and the fleet and waits for both.
func (env *streamEnv) close() error {
	env.cancel()
	sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer scancel()
	err := env.hs.Shutdown(sctx)
	if serr := <-env.srvErr; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if rerr := <-env.runErr; !errors.Is(rerr, context.Canceled) && err == nil {
		err = fmt.Errorf("fleet run: %w", rerr)
	}
	for _, tr := range env.clients {
		tr.CloseIdleConnections()
	}
	return err
}

// snapBody is the part of a served snapshot the clients decode and check.
type snapBody struct {
	Version           uint64    `json:"version"`
	Interval          int       `json:"interval"`
	Gravity           []float64 `json:"gravity"`
	Mean              []float64 `json:"mean"`
	Resolve           []float64 `json:"resolve"`
	GravityMRE        float64   `json:"gravity_mre"`
	ResolveMRE        float64   `json:"resolve_mre"`
	ResolveInterval   int       `json:"resolve_interval"`
	ResolveDuration   int64     `json:"resolve_duration_ns"`
	ResolveIterations int       `json:"resolve_iterations"`
	ResolveWarm       bool      `json:"resolve_warm"`
	Time              time.Time `json:"time"`
}

// checkVec reports why v is not a valid estimate of n pairs, or "".
func checkVec(name string, v []float64, n int) string {
	if len(v) != n {
		return fmt.Sprintf("%s has %d entries, want %d", name, len(v), n)
	}
	for i, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) || x < 0 {
			return fmt.Sprintf("%s[%d] = %g", name, i, x)
		}
	}
	return ""
}

// statusCounts is the client-side HTTP status tally.
type statusCounts struct{ s200, s304, s429, s5xx, other atomic.Int64 }

func (s *statusCounts) add(code int) {
	switch {
	case code == http.StatusOK:
		s.s200.Add(1)
	case code == http.StatusNotModified:
		s.s304.Add(1)
	case code == http.StatusTooManyRequests:
		s.s429.Add(1)
	case code >= 500:
		s.s5xx.Add(1)
	default:
		s.other.Add(1)
	}
}

// recv is one body a follower holds. first marks the plain fetch that
// opens a segment: it sets the baseline and is not a freshness sample.
type recv struct {
	tenant     *tenantFeed
	first      bool
	body       snapBody
	hasResolve bool
	at         time.Time
}

// follower long-polls a tenant's snapshot version after version. With
// rotate > 0 it moves to the next tenant of its list every rotate, so
// two followers sample every tenant of a fleet over a run.
type follower struct {
	tenants []*tenantFeed
	rotate  time.Duration
	npairs  int
	client  *http.Client
	base    string
	codes   *statusCounts
	tally   *tally
	cur     atomic.Pointer[tenantFeed] // tenant of the current segment
	newest  atomic.Int64               // newest interval held of it
	got     []recv
}

// get fetches one snapshot body; minVersion 0 asks for the current one.
func (fl *follower) get(ctx context.Context, tenant string, minVersion uint64) (snapBody, bool) {
	url := fl.base + "/v1/t/" + tenant + "/snapshot"
	if minVersion > 0 {
		url += "?min_version=" + strconv.FormatUint(minVersion, 10)
	}
	var b snapBody
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		fl.tally.fail("follower %s: %v", tenant, err)
		return b, false
	}
	resp, err := fl.client.Do(req)
	if err != nil {
		if ctx.Err() == nil {
			fl.tally.fail("follower %s: %v", tenant, err)
		}
		return b, false
	}
	derr := json.NewDecoder(resp.Body).Decode(&b)
	resp.Body.Close()
	if ctx.Err() != nil {
		return b, false // shutdown raced the response
	}
	fl.codes.add(resp.StatusCode)
	if resp.StatusCode != http.StatusOK || derr != nil {
		fl.tally.fail("follower %s: status %d, decode error %v", tenant, resp.StatusCode, derr)
		return b, false
	}
	fl.tally.check(resp.Header.Get("ETag") == serve.ETag(b.Version) && resp.Header.Get("X-Snapshot-Version") == strconv.FormatUint(b.Version, 10),
		"follower %s: body v%d with ETag %s, X-Snapshot-Version %s", tenant, b.Version, resp.Header.Get("ETag"), resp.Header.Get("X-Snapshot-Version"))
	bad := checkVec("gravity", b.Gravity, fl.npairs)
	if bad == "" {
		bad = checkVec("mean", b.Mean, fl.npairs)
	}
	if bad == "" && b.Resolve != nil {
		bad = checkVec("resolve", b.Resolve, fl.npairs)
	}
	fl.tally.check(bad == "", "follower %s v%d: %s", tenant, b.Version, bad)
	if bad == "" {
		// The served error figures must be the ones the served vectors give.
		thresh := core.ShareThreshold(b.Mean, 0.9)
		mre := core.MRE(b.Gravity, b.Mean, thresh)
		fl.tally.check(near(mre, b.GravityMRE), "follower %s v%d: gravity_mre %g, recomputed %g", tenant, b.Version, b.GravityMRE, mre)
		if b.Resolve != nil && b.ResolveInterval == b.Interval {
			mre = core.MRE(b.Resolve, b.Mean, thresh)
			fl.tally.check(near(mre, b.ResolveMRE), "follower %s v%d: resolve_mre %g, recomputed %g", tenant, b.Version, b.ResolveMRE, mre)
		}
	}
	return b, true
}

// near reports whether a and b agree to 1e-9 relative.
func near(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(a))
}

func (fl *follower) run(ctx context.Context, start time.Time) {
	for seg := 0; ctx.Err() == nil; seg++ {
		tf := fl.tenants[seg%len(fl.tenants)]
		tenant := tf.def.spec.Name
		segEnd := start.Add(time.Duration(seg+1) * fl.rotate)
		var v uint64
		for first := true; ctx.Err() == nil; {
			if !first && fl.rotate > 0 && time.Now().After(segEnd) {
				break
			}
			min := v + 1
			if first {
				min = 0
			}
			b, ok := fl.get(ctx, tenant, min)
			at := time.Now()
			if !ok {
				continue
			}
			fl.tally.check(first || b.Version > v, "follower %s: version %d after %d", tenant, b.Version, v)
			// Only the scalars are kept; the vectors were checked in get.
			has := b.Resolve != nil
			b.Gravity, b.Mean, b.Resolve = nil, nil, nil
			fl.got = append(fl.got, recv{tf, first, b, has, at})
			fl.newest.Store(int64(b.Interval))
			fl.cur.Store(tf)
			v, first = b.Version, false
		}
	}
}

// poller sends open-loop conditional GETs at a fixed rate over one
// connection, each timed from its due time.
type poller struct {
	url   string
	rate  float64
	codes *statusCounts
	tally *tally
	lat   []float64 // ms, due -> body read
	late  []float64 // ms, due -> sent
}

func (pl *poller) run(ctx context.Context, client *http.Client, start, end time.Time) {
	etag := ""
	step := time.Duration(float64(time.Second) / pl.rate)
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * step)
		if !due.Before(end) {
			return
		}
		if !sleepUntil(ctx, due) {
			return
		}
		sent := time.Now()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, pl.url, nil)
		if err != nil {
			pl.tally.fail("poller: %v", err)
			return
		}
		// The poller reads uncompressed bodies; the follower covers gzip.
		req.Header.Set("Accept-Encoding", "identity")
		if etag != "" {
			req.Header.Set("If-None-Match", etag)
		}
		resp, err := client.Do(req)
		if err != nil {
			if ctx.Err() == nil {
				pl.tally.fail("poller: %v", err)
			}
			continue
		}
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		done := time.Now()
		if ctx.Err() != nil {
			return
		}
		pl.codes.add(resp.StatusCode)
		pl.lat = append(pl.lat, ms(done.Sub(due)))
		pl.late = append(pl.late, ms(sent.Sub(due)))
		switch {
		case rerr != nil:
			pl.tally.fail("poller: read body: %v", rerr)
		case resp.StatusCode == http.StatusNotModified:
			pl.tally.check(resp.Header.Get("ETag") == etag, "poller: 304 with ETag %s for If-None-Match %s", resp.Header.Get("ETag"), etag)
		case resp.StatusCode == http.StatusOK:
			// The body's version is its first field; it must match both
			// version headers.
			tag := resp.Header.Get("ETag")
			ver := resp.Header.Get("X-Snapshot-Version")
			pl.tally.check(serve.ETag(parseUintOr0(ver)) == tag && bytes.HasPrefix(body, []byte(`{"version":`+ver+`,`)),
				"poller: body %.20q with ETag %s, X-Snapshot-Version %s", body, tag, ver)
			etag = tag
		default:
			pl.tally.fail("poller: status %d", resp.StatusCode)
		}
	}
}

func parseUintOr0(s string) uint64 {
	v, _ := strconv.ParseUint(s, 10, 64)
	return v
}

// sleepUntil waits for t, reporting false if ctx ended first.
func sleepUntil(ctx context.Context, t time.Time) bool {
	d := time.Until(t)
	if d <= 0 {
		return ctx.Err() == nil
	}
	tm := time.NewTimer(d)
	defer tm.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-tm.C:
		return true
	}
}

// genRecord is the generator's log of one interval of one tenant.
type genRecord struct {
	due, start, done time.Time
}

// engSeen is one publication a traced direct Engine.WaitVersion waiter saw.
type engSeen struct {
	snap       stream.Snapshot // scalars only
	hasResolve bool
	at         time.Time
}

// hubSeen is one entry a traced direct Hub.WaitMin waiter saw.
type hubSeen struct {
	version  uint64
	interval int
	pub      time.Time
	at       time.Time
	delta    bool
}

// encodeSample is one serve.NewEntry + Entry.Gzip timing on a published
// snapshot.
type encodeSample struct {
	interval       int
	start, enc, gz time.Time
	jsonB, gzB     int
}

// streamRun is everything one timed streaming phase recorded.
type streamRun struct {
	gen        map[string]map[int]genRecord
	genLate    []float64
	followers  []*follower
	poll       *poller
	codes      statusCounts
	tally      tally
	backlog0   int
	backlogEnd int
	scrapes    []float64
	engine     map[string][]engSeen
	history    map[string]map[uint64]stream.MetricPoint
	hub        map[string][]hubSeen
	encodes    []encodeSample
	records    int
}

// runStream drives one timed phase over a started environment.
func runStream(env *streamEnv, dur time.Duration, tr *tracer, p *phase) *streamRun {
	cfg := env.cfg
	r := &streamRun{gen: map[string]map[int]genRecord{}, engine: map[string][]engSeen{},
		history: map[string]map[uint64]stream.MetricPoint{}, hub: map[string][]hubSeen{}}
	for _, tf := range env.tenants {
		r.gen[tf.def.spec.Name] = map[int]genRecord{}
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	goRun := func(fn func()) {
		wg.Add(1)
		go func() { defer wg.Done(); fn() }()
	}
	start := time.Now().Add(time.Millisecond)
	for i := 0; i < cfg.followers; i++ {
		fl := &follower{rotate: cfg.rotate, npairs: env.tenants[0].def.sc.Net.NumPairs(), client: &http.Client{Transport: env.clients[i]},
			base: env.base, codes: &r.codes, tally: &r.tally}
		for j := i; j < len(env.tenants); j += cfg.followers {
			fl.tenants = append(fl.tenants, env.tenants[j])
		}
		r.followers = append(r.followers, fl)
		goRun(func() { fl.run(ctx, start) })
	}
	end := start.Add(dur)
	if cfg.pollRate > 0 {
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
		env.clients = append(env.clients, tr)
		r.poll = &poller{url: env.base + "/v1/t/" + env.tenants[0].def.spec.Name + "/snapshot", rate: cfg.pollRate, codes: &r.codes, tally: &r.tally}
		goRun(func() { r.poll.run(ctx, &http.Client{Transport: tr}, start, end) })
	}
	if cfg.scrapeEvery > 0 {
		goRun(func() {
			for t := start; ; {
				t = t.Add(cfg.scrapeEvery)
				if !t.Before(end) || !sleepUntil(ctx, t) {
					return
				}
				t0 := time.Now()
				_, err := env.reg.WriteTo(io.Discard)
				r.scrapes = append(r.scrapes, ms(time.Since(t0)))
				r.tally.check(err == nil, "registry render: %v", err)
			}
		})
	}
	var mu sync.Mutex // guards the traced probe maps
	if tr != nil {
		encodeCh := make(chan [2]stream.Snapshot, 1)
		goRun(func() {
			for {
				select {
				case <-ctx.Done():
					return
				case pair := <-encodeCh:
					t0 := time.Now()
					e, err := serve.NewEntry(pair[1], &pair[0], serve.DefaultDeltaRatio)
					t1 := time.Now()
					if err != nil {
						r.tally.fail("encode probe: %v", err)
						continue
					}
					gz := e.Gzip()
					t2 := time.Now()
					mu.Lock()
					r.encodes = append(r.encodes, encodeSample{pair[1].Interval, t0, t1, t2, len(e.JSON), len(gz)})
					mu.Unlock()
				}
			}
		})
		for _, tf := range env.tenants {
			name, eng := tf.def.spec.Name, tf.t.Engine()
			sampled := tf == env.tenants[0]
			goRun(func() {
				v, _, _ := eng.Position()
				var prev stream.Snapshot
				for n := 0; ; n++ {
					snap, err := eng.WaitVersion(ctx, v+1)
					if err != nil {
						return
					}
					at := time.Now()
					v = snap.Version
					if sampled && cfg.encodeEvery > 0 && n%cfg.encodeEvery == 0 && prev.Version > 0 {
						select {
						case encodeCh <- [2]stream.Snapshot{prev, snap}:
						default:
						}
					}
					prev = snap
					slim := snap
					slim.Gravity, slim.Mean, slim.Fanouts, slim.Resolve = nil, nil, nil, nil
					mu.Lock()
					r.engine[name] = append(r.engine[name], engSeen{slim, snap.Resolve != nil, at})
					mu.Unlock()
				}
			})
			hub, _ := env.srv.Hub(name)
			goRun(func() {
				var v uint64
				if e := hub.Current(); e != nil {
					v = e.Version
				}
				for {
					e, err := hub.WaitMin(ctx, v+1)
					if err != nil {
						return
					}
					at := time.Now()
					v = e.Version
					mu.Lock()
					r.hub[name] = append(r.hub[name], hubSeen{e.Version, e.Interval, e.Time, at, e.Delta != nil})
					mu.Unlock()
				}
			})
		}
		// The engine's metric history is the complete publication log
		// (a waiter can miss versions); it is bounded, so poll it.
		goRun(func() {
			tick := time.NewTicker(500 * time.Millisecond)
			defer tick.Stop()
			for {
				for _, tf := range env.tenants {
					pts := tf.t.Engine().Metrics()
					mu.Lock()
					h := r.history[tf.def.spec.Name]
					if h == nil {
						h = map[uint64]stream.MetricPoint{}
						r.history[tf.def.spec.Name] = h
					}
					for _, p := range pts {
						h[p.Version] = p
					}
					mu.Unlock()
				}
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
				}
			}
		})
	}

	// backlog is how many intervals the followers' tenants have
	// generated beyond the newest one the followers hold.
	backlog := func() int {
		b := 0
		for _, fl := range r.followers {
			if cur := fl.cur.Load(); cur != nil {
				b = max(b, int(cur.next.Load())-1-int(fl.newest.Load()))
			}
		}
		return b
	}
	for _, tf := range env.tenants {
		tf.first = int(tf.next.Load())
	}
	rt := startRuntimeSampler()
	r.backlog0 = backlog()
	offset := cfg.period / time.Duration(max(1, cfg.groups))
	for j := 0; ; j++ {
		tick := start.Add(time.Duration(j) * cfg.period)
		if !tick.Before(end) {
			break
		}
		for i, tf := range env.tenants {
			due := tick.Add(time.Duration(cfg.group(i, len(env.tenants))) * offset)
			sleepUntil(context.Background(), due)
			name, k := tf.def.spec.Name, int(tf.next.Load())
			tr.root(name, k, due)
			t0 := time.Now()
			tf.ingest(k)
			t1 := time.Now()
			tr.child(name, k, spanIngest, t0, t1)
			r.gen[name][k] = genRecord{due, t0, t1}
			r.genLate = append(r.genLate, ms(t0.Sub(due)))
			r.records += len(tf.def.demands[0])
			tf.next.Add(1)
		}
	}
	intervals := 0
	for _, tf := range env.tenants {
		tf.last = int(tf.next.Load()) - 1
		intervals += tf.last - tf.first + 1
	}
	r.backlogEnd = backlog()
	rt.finish(p, intervals)
	// Let the last intervals drain to the clients, then stop them.
	sleepUntil(context.Background(), time.Now().Add(time.Second))
	cancel()
	wg.Wait()
	return r
}
