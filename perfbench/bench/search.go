package bench

import (
	"fmt"
	"math"
	"time"

	"cadmc/internal/accuracy"
	"cadmc/internal/core"
	"cadmc/internal/emulator"
	"cadmc/internal/latency"
	"cadmc/internal/network"
	"cadmc/internal/nn"
)

// The search and replay scenario: the paper's VGG11 on the phone over weak
// indoor WiFi (Tables III-V, with its trace seed), searched at the
// evaluation harness's default budgets.
var searchSpec = emulator.ScenarioSpec{ModelName: "VGG11", DeviceName: "Phone", EnvName: "WiFi (weak) indoor", TraceSeed: 104}

const (
	// searchesPerRound is how many tree searches, each with its own
	// controller seed, make one round; a run measures whole rounds.
	searchesPerRound = 4
	searchSetupReps  = 31
)

// searchInputs is the search's set-up: the problem (with its estimator) and
// the bandwidth classes of the scenario trace, built as emulator.Train
// builds them.
type searchInputs struct {
	opts     emulator.TrainOptions
	problem  *core.Problem
	classes  []float64
	traceGen time.Duration
}

func buildSearch(spec emulator.ScenarioSpec, opts emulator.TrainOptions) (*searchInputs, error) {
	if spec.DeviceName != "Phone" {
		return nil, fmt.Errorf("bench: search scenario device %q unsupported", spec.DeviceName)
	}
	base, err := nn.Zoo(spec.ModelName, nn.CIFARInput, nn.CIFARClasses)
	if err != nil {
		return nil, err
	}
	env, err := network.ByName(spec.EnvName)
	if err != nil {
		return nil, err
	}
	transfer := latency.DefaultTransferModel()
	if env.RTTMS > 0 {
		transfer.RTTMS = env.RTTMS
	}
	est, err := latency.NewEstimator(latency.Phone(), latency.CloudServer(), transfer)
	if err != nil {
		return nil, err
	}
	in := &searchInputs{opts: opts}
	if in.problem, err = core.NewProblem(base, est, accuracy.New(), opts.Blocks); err != nil {
		return nil, err
	}
	start := time.Now()
	trace, err := network.Generate(env, spec.TraceSeed, opts.TraceMS)
	if err != nil {
		return nil, err
	}
	in.traceGen = time.Since(start)
	if in.classes, err = trace.Classes(opts.Classes); err != nil {
		return nil, err
	}
	return in, nil
}

// searchRun is one completed tree search.
type searchRun struct {
	reward   float64
	episodes int
	took     time.Duration // wall
	cpu      time.Duration // process CPU time
	memoHit  int
	memoMiss int
}

// search runs one boosted tree search with the given controller seed on a
// cold evaluation memo. A non-nil wrap wraps the RL strategy the search
// would otherwise build itself.
func (in *searchInputs) search(seed int64, wrap func(core.Strategy) core.Strategy) (searchRun, error) {
	p := in.problem
	p.Memo = core.NewMemoPool()
	cfg := core.DefaultTreeConfig(in.classes)
	cfg.Episodes = in.opts.TreeEpisodes
	cfg.BranchBudget = in.opts.BranchEpisodes
	cfg.Seed = seed
	cfg.RL.Seed = seed
	if wrap != nil {
		strat, err := core.NewRLStrategy(len(p.Techniques), cfg.RL)
		if err != nil {
			return searchRun{}, err
		}
		cfg.Strategy = wrap(strat)
	}
	var res *core.TreeResult
	cpu0 := cpuTime()
	took, err := timeIt(func() error {
		var err error
		res, err = core.OptimalTree(p, cfg)
		return err
	})
	if err != nil {
		return searchRun{}, err
	}
	r := searchRun{reward: res.Tree.Root.Reward, episodes: res.Episodes, took: took, cpu: cpuTime() - cpu0}
	for _, br := range res.BranchResults {
		r.episodes += br.Episodes
	}
	r.memoHit, r.memoMiss, _ = p.Memo.Stats()
	return r, nil
}

// searchSeed is the controller seed of search k in a round: the harness's
// seed 1, then 2, 3, ... A search's work depends strongly on its controller
// seed (1.1 s to 2.3 s on one two-core host), so every run searches the same
// seeds and run-to-run differences are the program's, not the inputs'.
func searchSeed(k int) int64 { return int64(k) + 1 }

// round runs one search per controller seed.
func (in *searchInputs) round(wrap func(core.Strategy) core.Strategy) ([]searchRun, error) {
	runs := make([]searchRun, searchesPerRound)
	for k := range runs {
		var err error
		if runs[k], err = in.search(searchSeed(k), wrap); err != nil {
			return nil, err
		}
	}
	return runs, nil
}

// sameRewards records a failed check unless two rounds found bit-identical
// trees (same backward-estimated root reward for every seed).
func sameRewards(res *Result, what string, a, b []searchRun) {
	for k := range a {
		if math.Float64bits(a[k].reward) != math.Float64bits(b[k].reward) {
			res.failf("search: %s: seed %d reward %v vs %v", what, k, a[k].reward, b[k].reward)
		}
	}
}

// runSearch is the search workload: the operator's time-to-tree.
func runSearch(opt Options) (*Result, error) {
	res := newResult()
	opts := emulator.DefaultTrainOptions()
	var (
		in                 *searchInputs
		setups, wallSetups []float64 // CPU and wall seconds
		traceGen           []float64
	)
	for rep := 0; rep < searchSetupReps; rep++ {
		cpu0 := cpuTime()
		d, err := timeIt(func() error {
			var err error
			in, err = buildSearch(searchSpec, opts)
			return err
		})
		if err != nil {
			return nil, err
		}
		setups = append(setups, (cpuTime() - cpu0).Seconds())
		wallSetups = append(wallSetups, d.Seconds())
		traceGen = append(traceGen, ms(in.traceGen))
	}
	res.Detail["setup_wall_s"] = median(wallSetups)
	res.Detail["tree_episodes"] = float64(opts.TreeEpisodes)
	res.Detail["branch_episodes"] = float64(opts.BranchEpisodes)

	if opt.Trace {
		return res, in.traced(res, median(traceGen))
	}
	budget := time.Duration(opt.Seconds * float64(time.Second))
	start := time.Now()
	var (
		first       []searchRun
		wall, cpu   []float64
		totalCPU    time.Duration
		eps, rounds int
	)
	for {
		runs, err := in.round(nil)
		if err != nil {
			return nil, err
		}
		if first == nil {
			first = runs
		} else {
			sameRewards(res, "repeated round", first, runs)
		}
		for _, r := range runs {
			wall = append(wall, ms(r.took))
			cpu = append(cpu, ms(r.cpu))
			totalCPU += r.cpu
			eps += r.episodes
			res.Attempted++
		}
		rounds++
		// At least two rounds, so the repeat check always runs; another
		// round only if it fits the budget at this pace.
		if elapsed := time.Since(start); rounds >= 2 && elapsed+elapsed/time.Duration(rounds) > budget {
			break
		}
	}
	heap := liveHeapMB()
	reward := 0.0
	for _, r := range first {
		reward += r.reward
	}
	reward /= float64(len(first))
	res.endToEnd(median(setups), heap, median(cpu), float64(eps)/totalCPU.Seconds(), reward)
	res.Detail["search_s"] = median(wall) / 1000
	res.Detail["search_cpu_s"] = median(cpu) / 1000
	res.Detail["tree_reward"] = reward
	res.Detail["searches"] = float64(len(wall))
	return res, nil
}

// traced runs one untraced round and one round with every controller call
// timed through a Strategy wrapper, checks the wrapper changed nothing, and
// reports the controllers' and the search loop's shares.
func (in *searchInputs) traced(res *Result, traceGenMS float64) error {
	plain, err := in.round(nil)
	if err != nil {
		return err
	}
	var timers []*timedStrategy
	traced, err := in.round(func(s core.Strategy) core.Strategy {
		t := &timedStrategy{inner: s}
		timers = append(timers, t)
		return t
	})
	if err != nil {
		return err
	}
	sameRewards(res, "traced vs untraced", plain, traced)
	var (
		sum                 timedStrategy
		plainCPU, tracedCPU float64
		tracedMS            float64
		hits, misses        int
	)
	for k := range traced {
		plainCPU += ms(plain[k].cpu)
		tracedCPU += ms(traced[k].cpu)
		tracedMS += ms(traced[k].took)
		hits += traced[k].memoHit
		misses += traced[k].memoMiss
		sum.add(timers[k])
		res.Attempted += 2
	}
	n := float64(len(traced))
	for _, c := range []struct {
		name string
		t    callTimer
	}{{"partition", sum.part}, {"compression", sum.comp}, {"observe", sum.observe}, {"commit", sum.commit}} {
		res.set("rl."+c.name+"_ms", "ms", ms(c.t.took)/n)
		res.set("rl."+c.name+"_calls", "count", float64(c.t.calls)/n)
	}
	rlMS := ms(sum.part.took + sum.comp.took + sum.observe.took + sum.commit.took)
	res.set("core.self_ms", "ms", (tracedMS-rlMS)/n)
	res.set("core.memo_lookups", "count", float64(hits+misses)/n)
	if hits+misses > 0 {
		res.set("core.memo_hit_ratio", "ratio", float64(hits)/float64(hits+misses))
	}
	res.set("network.trace_gen_ms", "ms", traceGenMS)
	res.set("trace.overhead_pct", "%", overheadPct(plainCPU, tracedCPU))
	res.Detail["untraced.search_cpu_ms"] = plainCPU / n
	res.Detail["traced.search_cpu_ms"] = tracedCPU / n
	return nil
}

// callTimer accumulates one controller method's calls and time.
type callTimer struct {
	calls int64
	took  time.Duration
}

func (c *callTimer) since(start time.Time) {
	c.calls++
	c.took += time.Since(start)
}

// timedStrategy times every call into the wrapped strategy. The search loop
// is single-threaded, so the timers need no locking.
type timedStrategy struct {
	inner                       core.Strategy
	part, comp, observe, commit callTimer
}

func (s *timedStrategy) add(o *timedStrategy) {
	for _, p := range [][2]*callTimer{{&s.part, &o.part}, {&s.comp, &o.comp}, {&s.observe, &o.observe}, {&s.commit, &o.commit}} {
		p[0].calls += p[1].calls
		p[0].took += p[1].took
	}
}

func (s *timedStrategy) SelectPartition(site string, seq [][]float64, mask []bool) (int, error) {
	start := time.Now()
	defer s.part.since(start)
	return s.inner.SelectPartition(site, seq, mask)
}

func (s *timedStrategy) SelectCompression(site string, seq [][]float64, masks [][]bool) ([]int, error) {
	start := time.Now()
	defer s.comp.since(start)
	return s.inner.SelectCompression(site, seq, masks)
}

func (s *timedStrategy) Observe(decisions []core.Decision, reward float64) error {
	start := time.Now()
	defer s.observe.since(start)
	return s.inner.Observe(decisions, reward)
}

func (s *timedStrategy) Commit() {
	start := time.Now()
	defer s.commit.since(start)
	s.inner.Commit()
}
