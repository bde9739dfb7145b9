package emulator

import (
	"fmt"
	"time"

	"cadmc/internal/faultnet"
	"cadmc/internal/gateway"
	"cadmc/internal/integrity"
	"cadmc/internal/serving"
	"cadmc/internal/telemetry"
)

// IntegrityOptions sizes one corruption + worker-stall chaos replay.
type IntegrityOptions struct {
	// Sessions is the number of concurrent user sessions (default 16); each
	// phase submits 2·Sessions requests round-robin over them.
	Sessions int
	// Seed drives variant weights, request inputs and the corruption
	// injector; equal seeds replay the whole scenario bit-identically.
	Seed int64
}

// integrityStallTimeout is the supervisor's wedge threshold on the
// integrity replay's manual clock.
const integrityStallTimeout = 50 * time.Millisecond

func (o IntegrityOptions) withDefaults() IntegrityOptions {
	if o.Sessions <= 0 {
		o.Sessions = 16
	}
	return o
}

// IntegrityRunResult is one corruption + stall replay's full outcome.
type IntegrityRunResult struct {
	Report  gateway.Report
	Records []GatewayRecord
	// Corruption reports the fault injected into the partitioned variant.
	Corruption integrity.Report
	// CorruptSig is the branch signature that was poisoned (and must end up
	// quarantined).
	CorruptSig string
	// Quarantined lists the quarantined signatures at the end of the run.
	Quarantined []string
	// DesiredClass and ServedClass are the swap manager's final view: they
	// diverge because the desired class's variant is quarantined.
	DesiredClass int
	ServedClass  int
	// Swaps is the swap manager's count of class changes.
	Swaps int64
	// Metrics is the gateway registry's final snapshot, including the
	// quarantine/rollback/restart counters this scenario exercises.
	Metrics telemetry.Snapshot
	// StallTimeout is the supervisor's wedge threshold the replay ran with.
	StallTimeout time.Duration
	// Options echoes the fully defaulted options the replay ran under.
	Options IntegrityOptions
}

// RunIntegrity replays the self-healing scenario end to end on a real
// loopback offload channel, three phases on the schedule high → low → high:
//
//  1. Phase 0 serves the partitioned (high-bandwidth) variant while a write
//     gate wedges one worker mid-offload; the other worker answers the rest
//     of the phase, then the manual clock jumps past the stall timeout, the
//     supervisor finds the wedged worker's progress standing still, abandons
//     it, and a replacement re-serves its batch — every request completes
//     exactly once.
//  2. Between phases the partitioned variant's cached weights are corrupted
//     with the seeded bit-flip injector while the gateway serves the
//     edge-resident variant.
//  3. Phase 2 asks for the high class again; the pre-swap manifest check
//     catches the corruption, quarantines the signature, and the gateway
//     keeps serving the last-known-good edge variant — whose logits are
//     bit-identical to an out-of-band recompute.
//
// Requests go in one at a time, each answered before the next, and every
// clock read — the gateway's and the offload clients' — is on the manual
// clock, so equal options replay the same batches, the same single restart
// and the same metrics.
func RunIntegrity(opts IntegrityOptions) (*IntegrityRunResult, error) {
	opts = opts.withDefaults()
	st, err := NewStack()
	if err != nil {
		return nil, err
	}
	defer func() { _ = st.Close() }()
	provider, err := st.Provider(opts.Seed)
	if err != nil {
		return nil, err
	}
	perPhase := 2 * opts.Sessions
	clk := faultnet.NewManualClock()
	gate := faultnet.NewGate()
	// Exactly one offload write across the whole pool wedges once the gate
	// is armed. Deferred after st.Close, so it runs first: the abandoned
	// worker is released before the stack stops the gateway and joins it.
	defer gate.Release()
	registry := telemetry.NewRegistry()
	gw, err := st.Gateway(gateway.Config{
		Workers:         2,
		Metrics:         registry,
		QueueCapacity:   3 * perPhase,
		PerSessionLimit: -1,
		MaxBatch:        4,
		MaxWait:         time.Millisecond,
		Clock:           clk,
		StallTimeout:    integrityStallTimeout,
		SupervisorPoll:  time.Millisecond,
	}, faultnet.Spec{WriteGate: gate}, serving.ResilientOptions{Now: clk.Now})
	if err != nil {
		return nil, err
	}
	hi, lo := classMbps[len(classMbps)-1], classMbps[0]
	mon := &scheduleMonitor{phaseMbps: []float64{hi, lo, hi}}
	mgr, err := gateway.NewSwapManager(gw, provider, mon, phaseTime(0))
	if err != nil {
		return nil, err
	}
	if err := gw.Start(); err != nil {
		return nil, err
	}
	rec := newRecorder(gw, opts.Sessions, opts.Seed)

	// Phase 0: partitioned variant, wedged worker. Arm before submitting so
	// the phase's first offload write parks; the other worker then answers
	// the rest of the phase, so when the manual clock jumps past the stall
	// threshold the wedged worker is the only one holding an unanswered
	// request, and the supervisor (polling in real time) restarts it. The
	// drain below can only finish if the replacement re-served the orphaned
	// request — the gate stays held until the very end of the run.
	gate.Arm()
	if err := rec.submit(0, 1, false); err != nil {
		return nil, err
	}
	for i := 0; i < 30_000 && !gate.Claimed(); i++ {
		time.Sleep(time.Millisecond)
	}
	if !gate.Claimed() {
		return nil, fmt.Errorf("emulator: no offload write claimed the stall gate")
	}
	if err := rec.serial(0, perPhase-1); err != nil {
		return nil, err
	}
	clk.Advance(2 * integrityStallTimeout)
	rec.drain()

	// Phase 1: collapse to the low class; the edge-resident variant serves.
	if _, err := mgr.Poll(phaseTime(1)); err != nil {
		return nil, err
	}
	// Corrupt the cached partitioned variant while nothing is flying on it.
	corrupt, err := provider.ForClass(len(classMbps) - 1)
	if err != nil {
		return nil, err
	}
	rep, err := integrity.NewCorruptor(opts.Seed+2).Corrupt(corrupt.Net, integrity.BitFlip)
	if err != nil {
		return nil, err
	}
	if err := rec.serial(1, perPhase); err != nil {
		return nil, err
	}
	rec.drain()

	// Phase 2: bandwidth recovers, the monitor wants the high class back —
	// but its variant is poisoned. The pre-swap verification must quarantine
	// it and keep the last-known-good edge variant serving.
	if _, err := mgr.Poll(phaseTime(2)); err != nil {
		return nil, err
	}
	if err := rec.serial(2, perPhase); err != nil {
		return nil, err
	}
	rec.drain()

	gate.Release()
	out := &IntegrityRunResult{
		Records:      rec.records,
		Corruption:   rep,
		CorruptSig:   corrupt.Sig,
		Quarantined:  provider.Quarantined(),
		DesiredClass: mgr.Desired(),
		ServedClass:  mgr.Class(),
		Swaps:        mgr.Swaps(),
		StallTimeout: integrityStallTimeout,
		Options:      opts,
	}
	out.Report = gw.Stop()
	out.Metrics = registry.Snapshot()
	if err := rec.err(); err != nil {
		return nil, err
	}
	return out, nil
}
