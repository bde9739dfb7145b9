package bench

import (
	"fmt"
	"math"
	"math/rand"
	"net"
	"sort"
	"sync"
	"time"

	"cadmc/internal/faultnet"
	"cadmc/internal/gateway"
	"cadmc/internal/parallel"
	"cadmc/internal/serving"
	"cadmc/internal/telemetry"
	"cadmc/internal/tensor"
)

// Fixed serving load. These are absolute numbers: the benchmark never
// rescales them, so figures from different commits stay comparable.
const (
	// LowRate and HighRate are the two fixed open-loop offered rates
	// (requests per second) latency is reported at. High is about a third
	// of the offload path's saturation rate on a calm two-core host, so it
	// stays below saturation when a shared host steals a third of the CPU.
	LowRate  = 1000.0
	HighRate = 2000.0
	// SLO is the latency limit quality is scored against, timed from each
	// request's due time.
	SLO = 25 * time.Millisecond
	// Window is the stretch of a phase one percentile is taken over. A phase
	// reports its quietest window: on a shared host a burst of hypervisor
	// steal inflates the windows it covers, while a change to the program
	// moves every window.
	Window = time.Second
	// SatOutstanding is how many requests the closed-loop saturation phase
	// keeps in flight: enough to keep both workers on full batches.
	SatOutstanding = 64
)

// BurstShape is edge-burst's on/off arrival shape: 50 ms bursts at twice the
// mean rate, then 50 ms of silence. On a two-core host these bursts about
// double the batch the same mean rate forms under Poisson arrivals (5 of 8
// at high, against 2.7). Shorter duties fill batches (7.1 to 7.5 at 30 ms),
// but only by pushing bursts up to the saturation rate, where latency swings
// with the host's steal: see README.md.
var BurstShape = OnOff{Period: 100 * time.Millisecond, Duty: 0.5}

// Gateway shape: two workers, so two offload connections on a two-core
// host. The queue is deep enough that a phase the host cannot keep up with
// misses the SLO on latency rather than shedding.
const (
	gwWorkers   = 2
	gwMaxBatch  = 8
	gwMaxWait   = time.Millisecond
	gwQueueCap  = 16384
	gwSessions  = 64
	inputPool   = 256
	servingReps = 7
	warmupReqs  = 64
)

// servingWorkload names the tree variant a serving workload drives and the
// route every one of its requests must take.
type servingWorkload struct {
	name   string
	class  int
	sig    string
	route  serving.Route
	bursty bool
}

var (
	// offloadWorkload serves the demo tree's class-1 variant: block 0 on
	// the edge, the rest on the cloud server over loopback TCP.
	offloadWorkload = servingWorkload{name: "offload", class: 1, sig: "f-1.1", route: serving.RouteOffloaded}
	// edgeBurstWorkload serves the fully edge-resident class-0 variant under
	// on/off bursts; serving's offload path is never touched.
	edgeBurstWorkload = servingWorkload{name: "edge-burst", class: 0, sig: "f-1.0.0", route: serving.RouteEdgeOnly, bursty: true}
)

var sessionNames = func() []string {
	s := make([]string, gwSessions)
	for i := range s {
		s[i] = fmt.Sprintf("s%02d", i)
	}
	return s
}()

// stack is the in-process serving deployment: the cloud server on a
// loopback listener, the served variant, the input pool with its reference
// logits, and the pre-built arrival schedules.
type stack struct {
	w         servingWorkload
	seed      int64
	clock     faultnet.Clock
	srv       *serving.Server
	addr      string
	serveDone chan error
	variant   *gateway.Variant
	inputs    []*tensor.Tensor
	ref       [][]float64

	low, high *Arrivals
}

// phaseSpans splits a run of the given length into the two fixed-rate
// phases and the saturation phase.
func phaseSpans(seconds float64) (fixed, saturation time.Duration) {
	s := time.Duration(seconds * float64(time.Second))
	return s * 3 / 10, s * 2 / 10
}

func newStack(w servingWorkload, seed int64, seconds float64) (*stack, error) {
	tree, err := gateway.DemoTree([]float64{2, 8})
	if err != nil {
		return nil, err
	}
	st := &stack{w: w, seed: seed, clock: faultnet.NewClock(), srv: serving.NewServer(), serveDone: make(chan error, 1)}
	st.srv.IdleTimeout = time.Minute
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st.addr = lis.Addr().String()
	go func() { st.serveDone <- st.srv.Serve(lis) }()

	provider, err := gateway.NewVariantProvider(tree, seed, st.srv.Register)
	if err != nil {
		return nil, st.closeWith(err)
	}
	if st.variant, err = provider.ForClass(w.class); err != nil {
		return nil, st.closeWith(err)
	}
	if st.variant.Sig != w.sig {
		return nil, st.closeWith(fmt.Errorf("bench: class %d composed variant %s, want %s", w.class, st.variant.Sig, w.sig))
	}
	rng := rand.New(rand.NewSource(seed))
	st.inputs = make([]*tensor.Tensor, inputPool)
	st.ref = make([][]float64, inputPool)
	for i := range st.inputs {
		st.inputs[i] = tensor.Randn(rng, 1, 3, 16, 16)
		out, err := st.variant.Net.Forward(st.inputs[i])
		if err != nil {
			return nil, st.closeWith(err)
		}
		st.ref[i] = append([]float64(nil), out.Data...)
	}
	fixed, _ := phaseSpans(seconds)
	sched := func(rate float64, span time.Duration) (*Arrivals, error) {
		if w.bursty {
			return Bursty(rng, rate, span, inputPool, BurstShape)
		}
		return Poisson(rng, rate, span, inputPool)
	}
	if st.low, err = sched(LowRate, fixed); err != nil {
		return nil, st.closeWith(err)
	}
	if st.high, err = sched(HighRate, fixed); err != nil {
		return nil, st.closeWith(err)
	}
	return st, nil
}

// closeWith shuts the server down and returns cause (or the close error).
func (st *stack) closeWith(cause error) error {
	err := st.srv.Close()
	if serveErr := <-st.serveDone; err == nil {
		err = serveErr
	}
	if cause != nil {
		return cause
	}
	return err
}

func (st *stack) dial() (net.Conn, error) { return net.Dial("tcp", st.addr) }

// newGateway builds, starts and warms a gateway over the stack. A non-nil
// tracing enables the gateway tracer and wraps each worker's offloader.
func (st *stack) newGateway(tr *tracing) (*gateway.Gateway, error) {
	cfg := gateway.Config{
		Workers:         gwWorkers,
		QueueCapacity:   gwQueueCap,
		PerSessionLimit: -1,
		MaxBatch:        gwMaxBatch,
		MaxWait:         gwMaxWait,
		Clock:           st.clock,
		NewOffloader: func(id int) (serving.Offloader, error) {
			c, err := serving.NewResilientClient(st.dial, serving.ResilientOptions{Seed: st.seed + int64(id) + 1})
			if err != nil || tr == nil {
				return c, err
			}
			return tr.wrap(c), nil
		},
		CloseOffloader: func(o serving.Offloader) error {
			if t, ok := o.(*timedOffloader); ok {
				return t.inner.Close()
			}
			if c, ok := o.(*serving.ResilientClient); ok {
				return c.Close()
			}
			return nil
		},
	}
	if tr != nil {
		cfg.Tracer = tr.tracer
	}
	gw, err := gateway.New(cfg)
	if err != nil {
		return nil, err
	}
	if _, err := gw.SetVariant(st.variant); err != nil {
		return nil, err
	}
	if err := gw.Start(); err != nil {
		return nil, err
	}
	// Warm-up: dial both offload connections and fault in the first
	// buffers, so the measured phase starts from a running service.
	for i := 0; i < warmupReqs; i++ {
		ch, err := gw.Submit(sessionNames[i%gwSessions], st.inputs[i%inputPool])
		if err != nil {
			gw.Stop()
			return nil, fmt.Errorf("bench: warm-up request %d shed: %w", i, err)
		}
		if r := <-ch; r.Err != nil {
			gw.Stop()
			return nil, fmt.Errorf("bench: warm-up request %d: %w", i, r.Err)
		}
	}
	return gw, nil
}

// phase is one stretch of load and what every request in it saw.
type phase struct {
	start  time.Duration   // clock time the schedule was anchored at
	due    []time.Duration // due offsets, ascending
	lat    []float64       // ms from due time, by arrival; +Inf if shed or failed
	late   []float64       // ms the generator ran behind each due time
	queue  []float64       // gateway queue wait, ms
	exec   []float64       // admission-to-completion minus queue wait, ms
	shed   int64
	failed int64
	ids    []uint64
	checks []string

	// batches and batched are the gateway's batch and batched-request
	// counts over the phase, read off its Report.
	batches, batched int64
}

func (p *phase) latQ(q float64) float64 { return quantile(append([]float64(nil), p.lat...), q) }

// missed counts the requests that were shed or failed.
func (p *phase) missed() int64 { return p.shed + p.failed }

// batchMean is the mean batch size the gateway formed during the phase.
func (p *phase) batchMean() float64 {
	if p.batches == 0 {
		return 0
	}
	return float64(p.batched) / float64(p.batches)
}

// perWindow is each Window-long stretch's q-quantile latency.
func (p *phase) perWindow(q float64) []float64 {
	var per []float64
	lo := 0
	for lo < len(p.due) {
		end := (p.due[lo]/Window + 1) * Window
		hi := lo
		for hi < len(p.due) && p.due[hi] < end {
			hi++
		}
		per = append(per, quantile(append([]float64(nil), p.lat[lo:hi]...), q))
		lo = hi
	}
	return per
}

// withinSLO is the share of requests that completed within the SLO.
func (p *phase) withinSLO() float64 {
	n := 0
	for _, l := range p.lat {
		if l <= ms(SLO) {
			n++
		}
	}
	return float64(n) / float64(len(p.lat))
}

// collect receives one result and checks it.
func (p *phase) collect(st *stack, r gateway.Result, input int) (ok bool) {
	p.ids = append(p.ids, r.RequestID)
	if r.Err != nil {
		p.failed++
		return false
	}
	p.queue = append(p.queue, r.QueueMS)
	p.exec = append(p.exec, r.TotalMS-r.QueueMS)
	if msg := st.check(r, input); msg != "" && len(p.checks) < 8 {
		p.checks = append(p.checks, msg)
	}
	return true
}

type pending struct {
	idx   int
	lateM float64
	ch    <-chan gateway.Result
}

// run drives one schedule open-loop: the generator submits each request at
// its due time whatever the backlog, and a collector checks every result.
func (st *stack) run(gw *gateway.Gateway, a *Arrivals) *phase {
	p := &phase{due: a.Due, lat: make([]float64, len(a.Due)), late: make([]float64, len(a.Due))}
	before := gw.Report()
	pend := make(chan pending, len(a.Due)) // one slot per scheduled request: the generator never blocks
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for q := range pend {
			r := <-q.ch
			if p.collect(st, r, int(a.Input[q.idx])) {
				p.lat[q.idx] = q.lateM + r.TotalMS
			} else {
				p.lat[q.idx] = math.Inf(1)
			}
		}
	}()
	p.start = st.clock.Now() + time.Millisecond
	for i, due := range a.Due {
		target := p.start + due
		now := st.clock.Now()
		if now < target {
			time.Sleep(target - now)
			now = st.clock.Now()
		}
		p.late[i] = ms(now - target)
		ch, err := gw.Submit(sessionNames[i%gwSessions], st.inputs[a.Input[i]])
		if err != nil {
			p.shed++
			p.lat[i] = math.Inf(1)
			continue
		}
		pend <- pending{idx: i, lateM: p.late[i], ch: ch}
	}
	close(pend)
	wg.Wait()
	after := gw.Report()
	p.batches, p.batched = after.Batches-before.Batches, after.BatchedRequests-before.BatchedRequests
	return p
}

// saturate keeps SatOutstanding requests in flight for span, closed-loop:
// each completion releases the next submission. It returns the phase and
// the median completion rate of the span's whole Windows (the rate over the
// span if it holds fewer than two), so a burst of steal on a shared host
// moves one window, not the figure.
func (st *stack) saturate(gw *gateway.Gateway, span time.Duration) (*phase, float64) {
	p := &phase{}
	type slot struct {
		input int
		ch    <-chan gateway.Result
	}
	ring := make([]slot, 0, SatOutstanding)
	next := 0
	submit := func() (slot, bool) {
		in := next % inputPool
		ch, err := gw.Submit(sessionNames[next%gwSessions], st.inputs[in])
		next++
		if err != nil {
			p.shed++
			return slot{}, false
		}
		return slot{input: in, ch: ch}, true
	}
	before := gw.Report()
	start := st.clock.Now()
	for i := 0; i < SatOutstanding; i++ {
		if s, ok := submit(); ok {
			ring = append(ring, s)
		}
	}
	var (
		doneAt  []time.Duration // completion offsets within the span
		elapsed time.Duration
	)
	for len(ring) > 0 {
		s := ring[0]
		ring = ring[1:]
		ok := p.collect(st, <-s.ch, s.input)
		now := st.clock.Now()
		if ok && elapsed == 0 {
			doneAt = append(doneAt, now-start)
		}
		if elapsed == 0 && now-start >= span {
			elapsed = now - start
		}
		if elapsed == 0 {
			if s, ok := submit(); ok {
				ring = append(ring, s)
			}
		}
	}
	if elapsed == 0 { // every submission was shed
		elapsed = st.clock.Now() - start
	}
	p.lat = make([]float64, next) // closed-loop latencies are not reported
	after := gw.Report()
	p.batches, p.batched = after.Batches-before.Batches, after.BatchedRequests-before.BatchedRequests
	if elapsed < 2*Window {
		return p, float64(len(doneAt)) / elapsed.Seconds()
	}
	counts := make([]int, elapsed/Window) // whole windows only
	for _, t := range doneAt {
		if w := int(t / Window); w < len(counts) {
			counts[w]++
		}
	}
	rates := make([]float64, len(counts))
	for i, c := range counts {
		rates[i] = float64(c) / Window.Seconds()
	}
	return p, median(rates)
}

// check compares one served result with the reference forward pass of its
// input: the variant, the route and every logit bit must match.
func (st *stack) check(r gateway.Result, input int) string {
	if r.VariantSig != st.w.sig {
		return fmt.Sprintf("request %d served by variant %s, want %s", r.RequestID, r.VariantSig, st.w.sig)
	}
	if r.Route != st.w.route {
		return fmt.Sprintf("request %d took route %v, want %v", r.RequestID, r.Route, st.w.route)
	}
	want := st.ref[input]
	if len(r.Logits) != len(want) {
		return fmt.Sprintf("request %d returned %d logits, want %d", r.RequestID, len(r.Logits), len(want))
	}
	for j, v := range r.Logits {
		if math.Float64bits(v) != math.Float64bits(want[j]) {
			return fmt.Sprintf("request %d logit %d is %v, reference forward gives %v", r.RequestID, j, v, want[j])
		}
	}
	return ""
}

// scraper polls gw.Report once a second, as a metrics endpoint would, and
// times each poll.
type scraper struct {
	stop chan struct{}
	wg   sync.WaitGroup
	ms   []float64
}

func startScraper(gw *gateway.Gateway) *scraper {
	s := &scraper{stop: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				start := time.Now()
				gw.Report()
				s.ms = append(s.ms, ms(time.Since(start)))
			}
		}
	}()
	return s
}

// halt stops the scraper and returns its poll times.
func (s *scraper) halt() []float64 {
	close(s.stop)
	s.wg.Wait()
	return s.ms
}

// session is one gateway's life: its phases, scrapes and final report.
type session struct {
	phases []*phase
	scrape []float64
	report gateway.Report
}

// finish stops the gateway and checks its accounting and routes, plus the
// uniqueness of every request id it handed out.
func (s *session) finish(gw *gateway.Gateway, sc *scraper, w servingWorkload, res *Result) {
	s.scrape = sc.halt()
	s.report = gw.Stop()
	rep := s.report
	if rep.Admitted != rep.Completed+rep.Shed {
		res.failf("%s: admitted %d != completed %d + shed %d", w.name, rep.Admitted, rep.Completed, rep.Shed)
	}
	switch w.route {
	case serving.RouteOffloaded:
		if rep.Routes.Offloaded != rep.Routes.Inferences || rep.Routes.Fallbacks != 0 {
			res.failf("%s: routes %s, want every request offloaded and no fallbacks", w.name, rep.Routes.String())
		}
	case serving.RouteEdgeOnly:
		if rep.Routes.EdgeOnly != rep.Routes.Inferences {
			res.failf("%s: routes %s, want every request edge-only", w.name, rep.Routes.String())
		}
	}
	var ids []uint64
	for _, p := range s.phases {
		ids = append(ids, p.ids...)
		for _, c := range p.checks {
			res.failf("%s: %s", w.name, c)
		}
		res.Attempted += int64(len(p.lat))
		res.Failed += p.shed + p.failed
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for i := 1; i < len(ids); i++ {
		if ids[i] == ids[i-1] {
			res.failf("%s: request id %d answered twice", w.name, ids[i])
			break
		}
	}
}

// runServing is the offload and edge-burst workload.
func runServing(opt Options, w servingWorkload) (*Result, error) {
	res := newResult()
	var (
		st     *stack
		gw     *gateway.Gateway
		setups []float64
	)
	for rep := 0; rep < servingReps; rep++ {
		if st != nil {
			gw.Stop()
			if err := st.closeWith(nil); err != nil {
				return nil, err
			}
		}
		d, err := timeIt(func() error {
			var err error
			if st, err = newStack(w, opt.Seed, opt.Seconds); err != nil {
				return err
			}
			gw, err = st.newGateway(nil)
			return err
		})
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	defer func() { _ = st.closeWith(nil) }()
	res.Detail["low_rate_rps"] = LowRate
	res.Detail["high_rate_rps"] = HighRate
	res.Detail["slo_ms"] = ms(SLO)

	_, satSpan := phaseSpans(opt.Seconds)
	if opt.Trace {
		return res, st.traced(gw, res, satSpan)
	}
	sc := startScraper(gw)
	s := &session{}
	low := st.run(gw, st.low)
	high := st.run(gw, st.high)
	// The live heap is taken before the saturation phase, whose request count
	// (and so the telemetry it retains) follows the achieved rate.
	heap := liveHeapMB()
	cpu0 := cpuTime()
	sat, peak := st.saturate(gw, satSpan)
	res.Detail["saturation_cpu_us_per_req"] = float64((cpuTime() - cpu0).Microseconds()) / float64(len(sat.lat))
	s.phases = append(s.phases, low, high, sat)
	s.finish(gw, sc, w, res)

	res.endToEnd(median(setups), heap, minOf(high.perWindow(0.50)), peak, high.withinSLO())
	phaseDetail(res, low, high)
	res.Detail["peak_rps"] = peak
	res.Detail["batch_mean.saturation"] = sat.batchMean()
	return res, nil
}

// phaseDetail records the fixed-rate phases' own figures. A percentile over
// a phase where shed or failed requests outnumber its tail is +Inf; the
// result drops such figures when it is printed, so missed.* carries them.
func phaseDetail(res *Result, low, high *phase) {
	for name, p := range map[string]*phase{"low": low, "high": high} {
		res.Detail["lat_p50_ms."+name] = p.latQ(0.50)
		res.Detail["lat_p99_ms."+name] = p.latQ(0.99)
		res.Detail["lat_p50_ms_minwin."+name] = minOf(p.perWindow(0.50))
		res.Detail["lat_p99_ms_minwin."+name] = minOf(p.perWindow(0.99))
		res.Detail["within_slo."+name] = p.withinSLO()
		res.Detail["late_p99_ms."+name] = quantile(p.late, 0.99)
		res.Detail["requests."+name] = float64(len(p.lat))
		res.Detail["missed."+name] = float64(p.missed())
		res.Detail["batch_mean."+name] = p.batchMean()
	}
}

// traced is the per-layer run. It measures the fixed-rate phases once on the
// untraced gateway and once on a gateway with the tracer on and each offload
// connection wrapped, then derives the layers' figures from the traced half.
// The untraced half gives the tracing overhead and, through a saturation
// phase, the batch size behind throughput_per_s.
func (st *stack) traced(plain *gateway.Gateway, res *Result, satSpan time.Duration) error {
	w := st.w
	sc := startScraper(plain)
	base := &session{}
	base.phases = append(base.phases, st.run(plain, st.low), st.run(plain, st.high))
	// Batch sizes are read off the untraced gateway's own counters; its
	// saturation phase is where batches fill.
	sat, _ := st.saturate(plain, satSpan)
	base.phases = append(base.phases, sat)
	base.finish(plain, sc, w, res)
	res.set("gateway.batch_mean", "count", sat.batchMean())
	// The open-loop batch size, at the high rate: on edge-burst this is what
	// the bursts make of the batcher.
	res.set("gateway.batch_mean_high", "count", base.phases[1].batchMean())

	tr := newTracing(st.clock, len(st.low.Due)+len(st.high.Due)+warmupReqs)
	gw, err := st.newGateway(tr)
	if err != nil {
		return err
	}
	tr.reset()
	arena0 := parallel.Stats()
	sc = startScraper(gw)
	s := &session{}
	low := st.run(gw, st.low)
	high := st.run(gw, st.high)
	arena1 := parallel.Stats()
	s.phases = append(s.phases, low, high)
	s.finish(gw, sc, w, res)

	lateAll := append(append([]float64(nil), low.late...), high.late...)
	res.set("loadgen.late_p99_ms", "ms", quantile(lateAll, 0.99))
	res.set("gateway.queue_ms_p50", "ms", quantile(high.queue, 0.50))
	res.set("gateway.queue_ms_p99", "ms", quantile(high.queue, 0.99))
	res.set("gateway.exec_ms_p50", "ms", quantile(high.exec, 0.50))
	rep := s.report
	res.set("gateway.admitted", "count", float64(rep.Admitted))
	res.set("gateway.shed", "count", float64(rep.Shed))
	res.set("gateway.errored", "count", float64(rep.Errored))

	offMS, calls, retries := tr.offloads(high.start)
	res.set("serving.offload_ms_p50", "ms", quantile(offMS, 0.50))
	res.set("serving.offload_ms_p99", "ms", quantile(offMS, 0.99))
	res.set("serving.offload_calls", "count", float64(calls))
	res.set("serving.retries", "count", float64(retries))
	res.set("serving.bytes_per_req", "B", rep.BytesPerRequest)
	res.set("serving.encode_ns", "ns", rep.MeanEncodeNS)
	res.set("serving.decode_ns", "ns", rep.MeanDecodeNS)

	edge := tr.edgeMS(low.start, high.start, w.route == serving.RouteOffloaded)
	res.set("nn.edge_ms_p50", "ms", quantile(edge, 0.50))
	res.set("nn.edge_batches", "count", float64(len(edge)))

	scrapes := append(append([]float64(nil), base.scrape...), s.scrape...)
	res.set("telemetry.scrape_ms_p50", "ms", quantile(scrapes, 0.50))
	res.set("telemetry.scrape_ms_max", "ms", maxOf(scrapes))
	res.set("telemetry.scrapes", "count", float64(len(scrapes)))

	hits, misses := arena1.ArenaHits-arena0.ArenaHits, arena1.ArenaMisses-arena0.ArenaMisses
	res.set("parallel.arena_gets", "count", float64(hits+misses))
	if hits+misses > 0 {
		res.set("parallel.arena_hit_ratio", "ratio", float64(hits)/float64(hits+misses))
	}
	res.set("trace.overhead_pct", "%", overheadPct(base.phases[0].latQ(0.50), low.latQ(0.50)))
	res.Detail["untraced.lat_p50_ms.low"] = base.phases[0].latQ(0.50)
	res.Detail["traced.lat_p50_ms.low"] = low.latQ(0.50)
	return nil
}

// timedOffloader wraps one worker's offload channel and records the span of
// every Offload call on the gateway clock.
type timedOffloader struct {
	inner *serving.ResilientClient
	clock faultnet.Clock

	mu    sync.Mutex
	spans []span
}

type span struct{ start, end time.Duration }

func (o *timedOffloader) Offload(modelID string, cut int, act *tensor.Tensor) ([]float64, error) {
	start := o.clock.Now()
	out, err := o.inner.Offload(modelID, cut, act)
	end := o.clock.Now()
	o.mu.Lock()
	o.spans = append(o.spans, span{start, end})
	o.mu.Unlock()
	return out, err
}

// MeterWith keeps the wrapped client metered into the gateway registry, so
// the Report's wire figures are the same with or without the wrapper.
func (o *timedOffloader) MeterWith(sink serving.MetricSink) { o.inner.MeterWith(sink) }

// tracing holds the traced gateway's instruments: its tracer and the
// per-worker offloader wrappers.
type tracing struct {
	clock  faultnet.Clock
	tracer *telemetry.Tracer

	mu   sync.Mutex
	offs []*timedOffloader
}

func newTracing(clock faultnet.Clock, capacity int) *tracing {
	return &tracing{clock: clock, tracer: telemetry.NewTracer(capacity)}
}

func (t *tracing) wrap(c *serving.ResilientClient) *timedOffloader {
	o := &timedOffloader{inner: c, clock: t.clock}
	t.mu.Lock()
	t.offs = append(t.offs, o)
	t.mu.Unlock()
	return o
}

// reset forgets the warm-up's spans; the gateway must be idle.
func (t *tracing) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, o := range t.offs {
		o.mu.Lock()
		o.spans = nil
		o.mu.Unlock()
	}
}

// offloads returns the durations of Offload calls that started at or after
// from, plus the call and retry totals over the whole traced session.
func (t *tracing) offloads(from time.Duration) (durMS []float64, calls, retries int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, o := range t.offs {
		o.mu.Lock()
		for _, s := range o.spans {
			if s.start >= from {
				durMS = append(durMS, ms(s.end-s.start))
			}
		}
		calls += int64(len(o.spans))
		o.mu.Unlock()
		retries += o.inner.Stats().Retries
	}
	return durMS, calls, retries
}

// edgeMS returns, for each traced batch that started at or after from, the
// self time of its gateway route span: the span minus the Offload calls made
// inside it. Batches before since (the warm-up) are skipped. Batch-mates share one route span. A batch's offload calls are
// the next unclaimed calls of one worker's wrapper that fit inside the span;
// when two workers' calls fit, the one whose last call ends nearest the
// span's end is the batch's own (the worker closes the span right after its
// last call returns). A batch no worker's calls fit is left out.
func (t *tracing) edgeMS(since, from time.Duration, offloaded bool) []float64 {
	type batch struct {
		start, end float64
		size       int
	}
	byKey := make(map[[2]uint64]*batch)
	var batches []*batch
	for _, tr := range t.tracer.Traces() {
		for _, sp := range tr.Spans {
			if sp.Name == "queue" || sp.Name == "batch" {
				continue
			}
			key := [2]uint64{math.Float64bits(sp.StartMS), math.Float64bits(sp.EndMS)}
			b, ok := byKey[key]
			if !ok {
				b = &batch{start: sp.StartMS, end: sp.EndMS}
				byKey[key] = b
				batches = append(batches, b)
			}
			b.size++
		}
	}
	sort.Slice(batches, func(i, j int) bool { return batches[i].start < batches[j].start })

	t.mu.Lock()
	defer t.mu.Unlock()
	cursor := make([]int, len(t.offs))
	var out []float64
	for _, b := range batches {
		if b.start < ms(since) {
			continue // warm-up: its offload spans were reset
		}
		need := 0
		if offloaded {
			need = b.size // one Offload call per request in the batch
		}
		pick, pickGap := -1, math.Inf(1)
		for wi, o := range t.offs {
			// Calls that ended before this batch began belong to batches
			// already visited (batches go in start order); skipping them
			// keeps one unmatched batch from stalling its worker's cursor.
			for cursor[wi] < len(o.spans) && ms(o.spans[cursor[wi]].end) < b.start {
				cursor[wi]++
			}
			c := cursor[wi]
			if need == 0 || c+need > len(o.spans) {
				continue
			}
			fits := true
			for _, s := range o.spans[c : c+need] {
				if ms(s.start) < b.start || ms(s.end) > b.end {
					fits = false
					break
				}
			}
			if gap := b.end - ms(o.spans[c+need-1].end); fits && gap < pickGap {
				pick, pickGap = wi, gap
			}
		}
		self := b.end - b.start
		if need > 0 {
			if pick < 0 {
				continue // no worker's calls fit: leave the batch out
			}
			for _, s := range t.offs[pick].spans[cursor[pick] : cursor[pick]+need] {
				self -= ms(s.end - s.start)
			}
			cursor[pick] += need
		}
		if b.start >= ms(from) {
			out = append(out, self)
		}
	}
	return out
}
