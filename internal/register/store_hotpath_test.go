package register

import (
	"testing"

	"repro/internal/dist"
	"repro/internal/sim"
)

// storeAllocRunner builds a reusable store runner over a generated workload
// on failure pattern f, for the allocation tripwire: the untraced run
// SimConfig defines, as StoreSweep runs it.
func storeAllocRunner(t *testing.T, cfg StoreConfig, opsPerClient int, fp *sim.FaultPlan, f *dist.FailurePattern) *sim.Runner {
	t.Helper()
	const n = 5
	s := dist.RangeSet(1, 3)
	scripts, err := GenerateStoreWorkload(StoreWorkloadConfig{
		N: n, S: s, Keys: cfg.Keys, Shards: cfg.Shards, OpsPerClient: opsPerClient,
		WriteRatio: -1, Skew: 1.3, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	simCfg, err := StoreSweepConfig{Pattern: f, S: s, Store: cfg, Scripts: scripts, Stab: 15, Faults: fp}.SimConfig()
	if err != nil {
		t.Fatal(err)
	}
	r, err := sim.NewRunner(simCfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// measureStoreAllocs returns the average allocations and executed steps of
// one run of the runner, after a warmup run that fills every buffer and pool
// high-water mark.
func measureStoreAllocs(t *testing.T, r *sim.Runner, runs int) (allocs, steps float64) {
	t.Helper()
	// Warm every amortized capacity (inbox rings, send buffers, pools) over
	// several schedules, so the measured runs only ever see buffers at
	// their high-water marks.
	for seed := int64(-8); seed < 0; seed++ {
		if _, err := r.Reset(seed).Run(); err != nil {
			t.Fatal(err)
		}
	}
	seed := int64(1)
	var stepsSeen []int64
	avg := testing.AllocsPerRun(runs, func() {
		res, err := r.Reset(seed).Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Reason != sim.ReasonStopCond {
			t.Fatalf("seed %d did not complete: %s", seed, res.Reason)
		}
		stepsSeen = append(stepsSeen, res.Steps)
		seed++
	})
	// AllocsPerRun calls the closure once extra as its own warmup; drop that
	// call's steps so the average matches the measured runs.
	stepsSeen = stepsSeen[1:]
	var sum int64
	for _, s := range stepsSeen {
		sum += s
	}
	return avg, float64(sum) / float64(len(stepsSeen))
}

// TestStoreAllocsPerStep is the E21 tripwire: the steady-state store step
// path allocates nothing. Per-run setup (rewinding the automata, the
// result, pool warmup to the in-flight high-water mark) is excluded by a
// marginal measurement: two runners differing only in script length have
// identical setup, so the allocation difference divided by the step
// difference is the pure steady-state cost per step — and must be ≈ 0. Every
// row runs StoreSweep's configuration, op log included.
//
// The sweep rows also run StoreSweep's check on the measured runner: the
// zero-allocation step holds with an op log that records one Return per
// completed op and verifies as StoreSweep verifies it.
func TestStoreAllocsPerStep(t *testing.T) {
	// The faulted case pins the retransmit path and the runner's
	// drop/duplicate refcount adjustments: lost pooled batches recycle
	// through DropRef instead of leaking (a leak re-allocates on the next
	// lease and shows up as a per-step cost), and retransmit re-sends flow
	// through the same pooled accumulators as first sends.
	faults := &sim.FaultPlan{Seed: 33, Loss: 0.05, Dup: 0.05, MaxDelay: 2}
	// The recovery row wipes a replica of shard 0 (group {1,5}) mid-run and
	// brings it back: the recovery transient (the rewound automaton, the lazy
	// replica re-allocation on first post-recovery touch) is per-run setup
	// shared by both runners, so the marginal cost per step must still be
	// zero.
	recovery := func() *dist.FailurePattern {
		f := dist.NewFailurePattern(5)
		f.CrashAt(5, 10)
		f.RecoverAt(5, 30)
		return f
	}()
	for _, tc := range []struct {
		name  string
		cfg   StoreConfig
		fp    *sim.FaultPlan
		pat   *dist.FailurePattern
		sweep bool
	}{
		{"batched", StoreConfig{Keys: 12, Window: 8}, nil, nil, false},
		{"piggyback+adaptive", StoreConfig{Keys: 12, Window: 8, Piggyback: true, AdaptiveWindow: true}, nil, nil, false},
		{"sharded", StoreConfig{Keys: 12, Shards: 4, Window: 8}, nil, nil, false},
		{"retransmit+faults", StoreConfig{Keys: 12, Shards: 4, Window: 8, Retransmit: true, RTO: 16}, faults, nil, false},
		{"openloop", StoreConfig{
			Keys: 12, Shards: 4, Window: 8, Piggyback: true,
			OpenLoop: true, ArrivalGap: 3, ArrivalJitter: true,
			Retransmit: true, RTO: 16,
		}, faults, nil, false},
		{"fastread", StoreConfig{
			Keys: 12, Shards: 4, Window: 8, Piggyback: true,
			OpenLoop: true, ArrivalGap: 3, ArrivalJitter: true,
			Retransmit: true, RTO: 16, FastReads: true,
		}, faults, nil, false},
		{"recovery", StoreConfig{
			Keys: 12, Shards: 4, Window: 8, Piggyback: true,
			Retransmit: true, RTO: 16, FastReads: true,
		}, faults, recovery, false},
		{"sweep", StoreConfig{
			Keys: 12, Shards: 4, Window: 8, Piggyback: true,
			Retransmit: true, RTO: 16, FastReads: true,
		}, faults, recovery, true},
		// The non-piggybacked frame paths: per-shard request snapshots
		// under open-loop arrivals, and the benchmark's n=128 configuration
		// (adaptive windows, retransmission, fast reads).
		{"batched+openloop", StoreConfig{
			Keys: 12, Shards: 4, Window: 8,
			OpenLoop: true, ArrivalGap: 3, ArrivalJitter: true,
			Retransmit: true, RTO: 16,
		}, faults, nil, false},
		{"sweep/batched", StoreConfig{
			Keys: 12, Shards: 4, Window: 2,
			AdaptiveWindow: true, MaxWindow: 6, StallSteps: 8,
			Retransmit: true, RTO: 24, MaxRTO: 96, FastReads: true,
		}, faults, recovery, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pat := tc.pat
			if pat == nil {
				pat = dist.NewFailurePattern(5)
			}
			short := storeAllocRunner(t, tc.cfg, 6, tc.fp, pat)
			long := storeAllocRunner(t, tc.cfg, 48, tc.fp, pat)
			aShort, sShort := measureStoreAllocs(t, short, 10)
			aLong, sLong := measureStoreAllocs(t, long, 10)
			if sLong-sShort < 500 {
				t.Fatalf("step gap too small to measure: %0.f vs %0.f", sShort, sLong)
			}
			if marginal := (aLong - aShort) / (sLong - sShort); marginal > 0.02 {
				t.Fatalf("steady-state store step allocates: %.4f allocs/step (short %.1f allocs over %.0f steps, long %.1f over %.0f)",
					marginal, aShort, sShort, aLong, sLong)
			}
			if tc.pat != nil {
				// The recovery row must actually exercise the wipe-and-rebuild
				// path: after a measured run the recovered replica's state has
				// grown back through quorum traffic.
				res, err := long.Reset(50).Run()
				if err != nil {
					t.Fatal(err)
				}
				if node := res.Automata[4].(*StoreNode); node.ReplicaStateBytes() == 0 {
					t.Fatal("recovered replica never repopulated — the recovery row exercised nothing")
				}
			}
			if tc.sweep {
				res, err := long.Reset(51).Run()
				if err != nil {
					t.Fatal(err)
				}
				returns, completed := 0, 0
				for _, op := range res.Ops {
					if op.Return {
						returns++
					}
				}
				for _, a := range res.Automata {
					completed += a.(*StoreNode).CompletedOps()
				}
				if completed == 0 || returns != completed {
					t.Fatalf("op log holds %d returns for %d completed ops", returns, completed)
				}
				if err := VerifyStoreRunReach(res, pat.Correct(), nil); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestStoreClientBuffersSizedByScript pins the client buffers to the
// node's own script: a 4-op client on 16 shards gets room for 4 pending ops,
// not a window on every shard, and queues and request accumulators only on
// the shards its script touches, each at most a window (doubled for
// retransmission) and at most the ops routed there. A pure replica gets no
// client half at all.
func TestStoreClientBuffersSizedByScript(t *testing.T) {
	cfg := StoreConfig{
		Keys: 64, Shards: 16, Window: 2,
		AdaptiveWindow: true, MaxWindow: 6, StallSteps: 8,
		Retransmit: true, RTO: 24, MaxRTO: 96,
	}
	m, err := cfg.ShardMap(128)
	if err != nil {
		t.Fatal(err)
	}
	// Keys 0 and 16 live on shard 0, key 5 on shard 5.
	script := []KeyedOp{
		{Key: 0, Kind: WriteOp, Arg: 1}, {Key: 16, Kind: ReadOp},
		{Key: 0, Kind: ReadOp}, {Key: 5, Kind: WriteOp, Arg: 2},
	}
	ops := map[int]int{0: 3, 5: 1}
	client := newStoreNode(1, 128, dist.NewProcSet(1), &cfg, m, script)
	if got := cap(client.pend); got != len(script) {
		t.Fatalf("cap(pend) = %d, want the script's %d ops", got, len(script))
	}
	for sh := 0; sh < m.Shards(); sh++ {
		q, qo, so := cap(client.queues[sh]), cap(client.qOut[sh]), cap(client.sOut[sh])
		want := [3]int{}
		if k := ops[sh]; k > 0 {
			want = [3]int{k, 2 * min(cfg.MaxWindow, k), 2 * min(cfg.MaxWindow, k)}
		}
		if got := [3]int{q, qo, so}; got != want {
			t.Fatalf("shard %d: queue/qOut/sOut capacities %v, want %v", sh, got, want)
		}
		if want[0] == 0 && (client.queues[sh] != nil || client.qOut[sh] != nil || client.sOut[sh] != nil) {
			t.Fatalf("untouched shard %d holds client buffers", sh)
		}
	}
	replica := newStoreNode(2, 128, dist.NewProcSet(1), &cfg, m, nil)
	if replica.storeClient != nil {
		t.Fatal("a pure replica holds a client half")
	}
}

// TestStorePiggybackReducesMessages pins the E22 mechanism: folding a
// step's same-destination traffic (query+store request batches plus
// pending replies) into one frame per (src, dst) pair sends strictly fewer
// messages than per-kind batches — while every run still verifies end to
// end.
func TestStorePiggybackReducesMessages(t *testing.T) {
	const n = 5
	f := dist.NewFailurePattern(n)
	s := dist.NewProcSet(1, 2)
	scripts, err := GenerateStoreWorkload(StoreWorkloadConfig{
		N: n, S: s, Keys: 8, OpsPerClient: 10, WriteRatio: -1, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	msgs := map[string]int64{}
	for name, cfg := range map[string]StoreConfig{
		"piggyback": {Keys: 8, Window: 4, Piggyback: true},
		"batched":   {Keys: 8, Window: 4},
	} {
		for seed := int64(0); seed < 6; seed++ {
			res := runStore(t, f, s, cfg, scripts, 10, seed)
			if err := VerifyStoreRunReach(res, f.Correct(), nil); err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			msgs[name] += res.MessagesSent
		}
	}
	if msgs["piggyback"] >= msgs["batched"] {
		t.Fatalf("piggybacking must cut messages below per-kind batching: piggyback=%d batched=%d",
			msgs["piggyback"], msgs["batched"])
	}
}

// TestStorePiggybackShardedUnderCrashStillVerifies runs the piggybacked
// wire format through the hardest existing scenario — sharded store, one
// whole replica group crashed mid-run — and demands the same verdict as
// the plain format: only the dead shard degrades, every per-key history
// linearizable.
func TestStorePiggybackShardedUnderCrashStillVerifies(t *testing.T) {
	const n, shards, keys = 6, 3, 9
	s := dist.NewProcSet(1, 2, 3)
	scripts, err := GenerateStoreWorkload(StoreWorkloadConfig{
		N: n, S: s, Keys: keys, Shards: shards, OpsPerClient: 9, WriteRatio: -1, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := StoreConfig{Keys: keys, Shards: shards, Window: 2, Piggyback: true}
	m, err := cfg.ShardMap(n)
	if err != nil {
		t.Fatal(err)
	}
	const dead = 1
	for seed := int64(0); seed < 6; seed++ {
		f := dist.NewFailurePattern(n)
		for _, p := range m.Group(dead).Members() {
			f.CrashAt(p, dist.Time(20+seed))
		}
		res := runStore(t, f, s, cfg, scripts, 150, seed)
		if err := VerifyStoreRunReach(res, f.Correct(), nil); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestAdaptiveControllerEdges drives the AIMD controller directly through
// its boundary behavior: additive increase saturates exactly at MaxWindow,
// a stall halves down to the floor of 1 and stays pinned there, and a
// completion resets the stall clock.
func TestAdaptiveControllerEdges(t *testing.T) {
	cfg := StoreConfig{Keys: 4, Window: 4, AdaptiveWindow: true, MaxWindow: 6, StallSteps: 3}
	m, err := cfg.ShardMap(4)
	if err != nil {
		t.Fatal(err)
	}
	a := newStoreNode(1, 4, dist.NewProcSet(1), &cfg, m, nil)
	if got := a.WindowOf(0); got != 4 {
		t.Fatalf("controller starts at %d, want the configured Window 4", got)
	}
	// Additive increase: +1 per completed window, hard-capped at MaxWindow
	// no matter how many completions follow.
	for i := 0; i < 100; i++ {
		a.noteCompletion(0)
	}
	if got := a.WindowOf(0); got != 6 {
		t.Fatalf("growth reached %d, want it capped at MaxWindow 6", got)
	}
	// Multiplicative decrease: with ops outstanding and no completions, every
	// StallSteps client steps halve the window — 6 → 3 → 1 — and further
	// stalls keep it pinned at the floor of 1.
	// One op outstanding on shard 0, which therefore is busy: the state a
	// node reaches by starting an op there.
	a.load[0] = 1
	a.busy = a.busy.Add(0)
	stall := func(steps int) {
		for i := 0; i < steps; i++ {
			a.doneMask = ShardSet{}
			a.adaptWindows()
		}
	}
	stall(3)
	if got := a.WindowOf(0); got != 3 {
		t.Fatalf("after one stall window is %d, want 3", got)
	}
	stall(3)
	if got := a.WindowOf(0); got != 1 {
		t.Fatalf("after two stalls window is %d, want 1", got)
	}
	stall(30)
	if got := a.WindowOf(0); got != 1 {
		t.Fatalf("a fully stalled shard must pin at 1, got %d", got)
	}
	// A completion resets the stall clock: two idle steps, a completion, two
	// more idle steps never reach the threshold of 3 consecutive ones.
	a.win[0].cur = 4
	stall(2)
	a.doneMask = ShardSet{}
	a.noteCompletion(0)
	a.adaptWindows()
	stall(2)
	if got := a.WindowOf(0); got != 4 {
		t.Fatalf("completion must reset the stall clock, window is %d, want 4", got)
	}
}

// TestStoreAdaptiveWindowPinsDeadShard is the integration half of the
// controller edge coverage: in a real sharded run whose shard-1 replica
// group is dead from the start, every client that routed at least one op
// to the dead shard ends with that shard's window decayed to 1, while the
// run still completes all available-shard work and verifies.
func TestStoreAdaptiveWindowPinsDeadShard(t *testing.T) {
	const n, shards, keys = 6, 3, 9
	s := dist.NewProcSet(1, 4) // both in shard 0's group {1,4}: clients survive
	scripts, err := GenerateStoreWorkload(StoreWorkloadConfig{
		N: n, S: s, Keys: keys, Shards: shards, OpsPerClient: 18, WriteRatio: -1, Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := StoreConfig{
		Keys: keys, Shards: shards, Window: 4,
		AdaptiveWindow: true, MaxWindow: 8, StallSteps: 4,
	}
	m, err := cfg.ShardMap(n)
	if err != nil {
		t.Fatal(err)
	}
	const dead = 1
	deadOps := make(map[dist.ProcID]int)
	for _, p := range s.Members() {
		for _, op := range scripts[p-1] {
			if m.Shard(op.Key) == dead {
				deadOps[p]++
			}
		}
	}
	f := dist.NewFailurePattern(n)
	for _, p := range m.Group(dead).Members() {
		f.CrashAt(p, 0)
	}
	sawDead := false
	for seed := int64(0); seed < 4; seed++ {
		res := runStore(t, f, s, cfg, scripts, 150, seed)
		if err := VerifyStoreRunReach(res, f.Correct(), nil); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, p := range s.Members() {
			node := res.Automata[p-1].(*StoreNode)
			if deadOps[p] == 0 {
				continue // nothing ever outstanding on the dead shard
			}
			sawDead = true
			if got := node.WindowOf(dead); got != 1 {
				t.Fatalf("seed %d: p%d's dead-shard window is %d, want it pinned at 1", seed, int(p), got)
			}
			for sh := 0; sh < shards; sh++ {
				if got := node.WindowOf(sh); got < 1 || got > cfg.MaxWindow {
					t.Fatalf("seed %d: p%d shard %d window %d outside [1, %d]", seed, int(p), sh, got, cfg.MaxWindow)
				}
			}
		}
	}
	if !sawDead {
		t.Fatal("workload never touched the dead shard — the scenario tests nothing")
	}
}

// TestStoreAdaptiveSweepWorkerIndependent pins the determinism of the
// adaptive controller (and the piggybacked wire format) on the sweep
// engine: controller state is a pure function of each run's observation
// sequence, so aggregates are bit-identical for every worker count even
// under a mid-run whole-group crash.
func TestStoreAdaptiveSweepWorkerIndependent(t *testing.T) {
	const n, shards = 6, 3
	s := dist.NewProcSet(1, 2, 3)
	scripts, err := GenerateStoreWorkload(StoreWorkloadConfig{
		N: n, S: s, Keys: 9, Shards: shards, OpsPerClient: 8, WriteRatio: -1, Skew: 1.4, Seed: 23,
	})
	if err != nil {
		t.Fatal(err)
	}
	f := dist.NewFailurePattern(n)
	f.CrashAt(2, 25)
	f.CrashAt(5, 35)
	cfg := StoreSweepConfig{
		Pattern: f, S: s,
		Store: StoreConfig{
			Keys: 9, Shards: shards, Window: 2, Piggyback: true,
			AdaptiveWindow: true, MaxWindow: 6, StallSteps: 8,
		},
		Scripts: scripts,
		Stab:    120,
		Seeds:   8,
	}
	sweepWorkerIndependent(t, cfg, 2, 4)
}
