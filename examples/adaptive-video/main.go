// Adaptive-video: the paper's motivating workload — a continuous-vision
// application classifying a stream of frames on a phone whose 4G link
// fluctuates while the user moves. Each frame re-composes the DNN from the
// model tree, so the deployment adapts mid-stream: offloading when the
// network spikes, running a compressed model on the device when it fades.
//
// The example prints a per-frame timeline showing which branch the runtime
// took and contrasts the tree against dynamic DNN surgery.
//
// Run with:
//
//	go run ./examples/adaptive-video
package main

import (
	"fmt"
	"os"

	"cadmc/internal/accuracy"
	"cadmc/internal/core"
	"cadmc/internal/emulator"
	"cadmc/internal/latency"
	"cadmc/internal/nn"
	"cadmc/internal/surgery"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "adaptive-video:", err)
		os.Exit(1)
	}
}

func run() error {
	spec := emulator.ScenarioSpec{
		ModelName:  "AlexNet",
		DeviceName: "Phone",
		EnvName:    "4G outdoor quick",
		TraceSeed:  42,
	}
	opts := emulator.DefaultTrainOptions()
	ts, err := emulator.Train(spec, opts)
	if err != nil {
		return err
	}
	fmt.Printf("trained %s; bandwidth classes %.2f / %.2f Mbps\n\n", spec, ts.Classes[0], ts.Classes[1])

	// Walk 12 consecutive frames along the trace, printing the composition
	// the tree runtime picks for each.
	est := ts.Problem.Est
	oracle := accuracy.New()
	t := 0.0
	fmt.Println("frame  t(ms)   bandwidth  decision                              latency   accuracy")
	for frame := 0; frame < 12; frame++ {
		rt, err := core.NewRuntime(ts.Tree)
		if err != nil {
			return err
		}
		var layers []nn.Layer
		frameStart := t
		for !rt.Done() {
			node := rt.Current()
			layers = nn.AppendShifted(layers, node.EdgeLayers)
			blockMS, err := blockLatency(ts.Problem.Base, layers, len(layers)-len(node.EdgeLayers), est.Edge)
			if err != nil {
				return err
			}
			t += blockMS
			if _, err := rt.Advance(ts.Trace.At(t)); err != nil {
				return err
			}
		}
		// Final (terminal) block.
		node := rt.Current()
		layers = nn.AppendShifted(layers, node.EdgeLayers)
		blockMS, err := blockLatency(ts.Problem.Base, layers, len(layers)-len(node.EdgeLayers), est.Edge)
		if err != nil {
			return err
		}
		t += blockMS
		cand, err := rt.Candidate()
		if err != nil {
			return err
		}
		decision := "edge only (compressed)"
		if node.Partitioned() {
			bytes, err := cand.Model.FeatureBytes(cand.Cut)
			if err != nil {
				return err
			}
			transfer := est.Transfer.MS(bytes, ts.Trace.At(t))
			cloudMS, err := latency.RangeMS(cand.Model, cand.Cut+1, len(cand.Model.Layers), est.Cloud)
			if err != nil {
				return err
			}
			t += transfer + cloudMS
			decision = fmt.Sprintf("offload after layer %d (%d KB)", cand.Cut, bytes/1024)
		}
		acc, err := oracle.Evaluate(cand.Model, true)
		if err != nil {
			return err
		}
		frameMS := t - frameStart
		fmt.Printf("%5d %7.0f %8.2fMbps  %-36s %7.2fms   %.2f%%\n",
			frame, frameStart, ts.Trace.At(frameStart), decision, frameMS, acc)
		t += 30 // camera inter-frame gap
	}

	// Aggregate comparison against surgery over a longer replay.
	fmt.Println("\naggregate over 120 frames (field mode):")
	rows, err := ts.Run(emulator.DefaultConfig(emulator.ModeField))
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Printf("  %-8s reward %6.2f | latency %7.2f ms (worst %7.2f) | accuracy %5.2f%%\n",
			r.Policy, r.MeanReward, r.MeanLatencyMS, r.WorstLatencyMS, r.MeanAccuracy)
	}
	fmt.Printf("\ntree vs surgery latency: %.1f%% reduction\n",
		100*(1-rows[2].MeanLatencyMS/rows[0].MeanLatencyMS))

	// Show what surgery would have done at the two class bandwidths.
	for _, w := range ts.Classes {
		sres, err := surgery.Partition(ts.Problem.Base, est, w)
		if err != nil {
			return err
		}
		fmt.Printf("surgery at %.2f Mbps: cut after layer %d, %.2f ms\n",
			w, sres.Cut, sres.Latency.TotalMS())
	}
	return nil
}

func blockLatency(base *nn.Model, layers []nn.Layer, from int, dev latency.Device) (float64, error) {
	partial := &nn.Model{Name: base.Name, Input: base.Input, Layers: layers}
	return latency.RangeMS(partial, from, len(layers), dev)
}
