package bench

import (
	"math"
	"runtime"
	"time"

	"cadmc/internal/core"
	"cadmc/internal/emulator"
	"cadmc/internal/latency"
	"cadmc/internal/nn"
	"cadmc/internal/surgery"
)

// replayArtifacts is how many trained artifacts (the search scenario, each
// trained with its own controller seed) one replay pass covers. Training them is the set-up, so
// setup_s is the median of these trainings.
const replayArtifacts = 3

// replayModes are the two Table IV/V replay modes.
var replayModes = []emulator.Mode{emulator.ModeEmulation, emulator.ModeField}

// replayPass replays every artifact in both modes and returns the results
// in a fixed order plus the number of policy decisions made.
func replayPass(arts []*emulator.TrainedScenario) ([]emulator.Result, int, error) {
	var out []emulator.Result
	decisions := 0
	for _, ts := range arts {
		for _, m := range replayModes {
			cfg := emulator.DefaultConfig(m)
			rs, err := ts.Run(cfg)
			if err != nil {
				return nil, 0, err
			}
			out = append(out, rs...)
			decisions += len(rs) * cfg.Inferences
		}
	}
	return out, decisions, nil
}

// sameResults reports whether two passes are bit-identical.
func sameResults(a, b []emulator.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Policy != y.Policy {
			return false
		}
		for _, f := range [][2]float64{
			{x.MeanReward, y.MeanReward}, {x.MeanLatencyMS, y.MeanLatencyMS}, {x.MeanAccuracy, y.MeanAccuracy},
			{x.WorstLatencyMS, y.WorstLatencyMS}, {x.MeanEnergyMJ, y.MeanEnergyMJ},
		} {
			if math.Float64bits(f[0]) != math.Float64bits(f[1]) {
				return false
			}
		}
	}
	return true
}

// replayer repeats passes and checks each one against the first.
type replayer struct {
	arts      []*emulator.TrainedScenario
	res       *Result
	reference []emulator.Result
}

// passStats is what a run of replay passes measured. The CPU figures are
// the process's CPU time: the replay is single-threaded, so on a quiet host
// they match the wall figures, and unlike them they do not grow when the
// hypervisor steals the CPU.
type passStats struct {
	wallPerDecision []float64 // ms per decision, one entry per pass
	cpuPerDecision  []float64
	decisions       int
	wall, cpu       time.Duration
}

// passes runs passes until budget is spent (at least two, so the
// repetition check always has something to compare). A non-nil mem records
// allocation counts around every pass.
func (r *replayer) passes(budget time.Duration, mem *runtime.MemStats) (*passStats, error) {
	var (
		before, after runtime.MemStats
		ps            passStats
	)
	for len(ps.wallPerDecision) < 2 || ps.wall < budget {
		if mem != nil {
			runtime.ReadMemStats(&before)
		}
		start, cpu0 := time.Now(), cpuTime()
		out, n, err := replayPass(r.arts)
		wall, cpu := time.Since(start), cpuTime()-cpu0
		if err != nil {
			return nil, err
		}
		if mem != nil {
			runtime.ReadMemStats(&after)
			mem.Mallocs += after.Mallocs - before.Mallocs
			mem.TotalAlloc += after.TotalAlloc - before.TotalAlloc
		}
		if r.reference == nil {
			r.reference = out
		} else if !sameResults(r.reference, out) {
			r.res.failf("replay: pass %d differs from the first pass", len(ps.wallPerDecision))
		}
		ps.wallPerDecision = append(ps.wallPerDecision, ms(wall)/float64(n))
		ps.cpuPerDecision = append(ps.cpuPerDecision, ms(cpu)/float64(n))
		ps.decisions += n
		ps.wall += wall
		ps.cpu += cpu
		r.res.Attempted += int64(n)
	}
	return &ps, nil
}

// treeFieldReward is the Tree policy's field-mode mean reward, averaged over
// the artifacts.
func (r *replayer) treeFieldReward() float64 {
	sum, n := 0.0, 0
	for i, x := range r.reference {
		// Results run artifact by artifact, mode by mode, policy by policy.
		if (i/3)%len(replayModes) == 1 && x.Policy == "Tree" {
			sum += x.MeanReward
			n++
		}
	}
	return sum / float64(n)
}

// runReplay is the replay workload: the Table IV/V emulation and field
// replays of artifacts trained in set-up.
func runReplay(opt Options) (*Result, error) {
	res := newResult()
	var (
		arts               []*emulator.TrainedScenario
		setups, wallSetups []float64 // CPU and wall seconds
	)
	for k := 0; k < replayArtifacts; k++ {
		opts := emulator.DefaultTrainOptions()
		opts.Seed = searchSeed(k)
		var ts *emulator.TrainedScenario
		cpu0 := cpuTime()
		d, err := timeIt(func() error {
			var err error
			ts, err = emulator.Train(searchSpec, opts)
			return err
		})
		if err != nil {
			return nil, err
		}
		arts = append(arts, ts)
		setups = append(setups, (cpuTime() - cpu0).Seconds())
		wallSetups = append(wallSetups, d.Seconds())
	}
	res.Detail["setup_wall_s"] = median(wallSetups)
	r := &replayer{arts: arts, res: res}
	budget := time.Duration(opt.Seconds * float64(time.Second))
	if opt.Trace {
		return res, r.traced(budget)
	}
	ps, err := r.passes(budget, nil)
	if err != nil {
		return nil, err
	}
	heap := liveHeapMB()
	reward := r.treeFieldReward()
	res.endToEnd(median(setups), heap, median(ps.cpuPerDecision), float64(ps.decisions)/ps.cpu.Seconds(), reward)
	res.Detail["wall_ms_per_decision"] = median(ps.wallPerDecision)
	res.Detail["replay_decisions_per_s"] = float64(ps.decisions) / ps.wall.Seconds()
	res.Detail["replay_reward"] = reward
	res.Detail["passes"] = float64(len(ps.wallPerDecision))
	return res, nil
}

// traced replays half the budget plainly and half with allocation counting,
// then times the layers the replay leans on, call by call, on the replay's
// own models and bandwidths.
func (r *replayer) traced(budget time.Duration) error {
	plain, err := r.passes(budget/2, nil)
	if err != nil {
		return err
	}
	var mem runtime.MemStats
	counted, err := r.passes(budget/2, &mem)
	if err != nil {
		return err
	}
	res := r.res
	res.set("replay.allocs_per_decision", "count", float64(mem.Mallocs)/float64(counted.decisions))
	res.set("replay.bytes_per_decision", "B", float64(mem.TotalAlloc)/float64(counted.decisions))
	res.set("trace.overhead_pct", "%", overheadPct(median(plain.cpuPerDecision), median(counted.cpuPerDecision)))

	var models []*nn.Model
	var bandwidths []float64
	for _, ts := range r.arts {
		models = append(models, ts.Problem.Base)
		for _, br := range ts.Branches {
			models = append(models, br.Candidate.Model)
		}
		for q := 0.1; q < 0.95; q += 0.2 {
			bandwidths = append(bandwidths, ts.Trace.Quantile(q))
		}
	}
	base := r.arts[0].Problem
	classes := len(r.arts[0].Tree.ClassMbps)
	// Each entry times a loop over the replay's own inputs and makes calls
	// calls of the named function per loop, so the figure is per call.
	timings := []struct {
		name  string
		calls int
		loop  func() error
	}{
		{"nn.infer_dims_us", len(models), func() error {
			for _, m := range models {
				if _, err := m.InferDims(); err != nil {
					return err
				}
			}
			return nil
		}},
		{"latency.range_ms_us", len(base.Base.Layers), func() error {
			for i := range base.Base.Layers {
				if _, err := latency.RangeMS(base.Base, i, i+1, base.Est.Edge); err != nil {
					return err
				}
			}
			return nil
		}},
		{"surgery.partition_us", len(r.arts) * len(bandwidths), func() error {
			for _, ts := range r.arts {
				for _, w := range bandwidths {
					if _, err := surgery.Partition(ts.Problem.Base, ts.Problem.Est, w); err != nil {
						return err
					}
				}
			}
			return nil
		}},
		{"accuracy.evaluate_us", len(models), func() error {
			for _, m := range models {
				if _, err := base.Oracle.Evaluate(m, m != base.Base); err != nil {
					return err
				}
			}
			return nil
		}},
		{"core.compose_us", len(r.arts) * classes, func() error {
			for _, ts := range r.arts {
				for k := 0; k < classes; k++ {
					if _, _, err := core.ComposeForClass(ts.Tree, k); err != nil {
						return err
					}
				}
			}
			return nil
		}},
	}
	const minSpan = 100 * time.Millisecond
	for _, t := range timings {
		loops := 0
		start := time.Now()
		for loops == 0 || time.Since(start) < minSpan {
			if err := t.loop(); err != nil {
				return err
			}
			loops++
		}
		res.set(t.name, "us", float64(time.Since(start).Nanoseconds())/1e3/float64(loops*t.calls))
	}
	res.Detail["untraced.cpu_ms_per_decision"] = median(plain.cpuPerDecision)
	res.Detail["traced.cpu_ms_per_decision"] = median(counted.cpuPerDecision)
	return nil
}
