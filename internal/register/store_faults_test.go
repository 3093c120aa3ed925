package register

import (
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/sim"
)

// runStoreFaulted executes one store run as SimConfig defines it under fault
// plan fp (nil = none), with a full trace and a scheduler seeded with seed.
// It keeps sim.Run's one-shot run seed 0 for the fault plan, and returns the
// result plus the per-client reachability masks of the run's stop condition.
func runStoreFaulted(t *testing.T, f *dist.FailurePattern, s dist.ProcSet, cfg StoreConfig, scripts [][]KeyedOp, fp *sim.FaultPlan, stab dist.Time, seed int64) (*sim.Result, []ShardSet) {
	t.Helper()
	run := StoreSweepConfig{Pattern: f, S: s, Store: cfg, Scripts: scripts, Stab: stab, Faults: fp}
	simCfg, err := run.SimConfig()
	if err != nil {
		t.Fatal(err)
	}
	simCfg.OmitMessages = false
	simCfg.Scheduler = sim.NewRandomScheduler(seed)
	res, err := sim.Run(simCfg)
	if err != nil {
		t.Fatalf("sim.Run: %v", err)
	}
	m, err := cfg.ShardMap(f.N())
	if err != nil {
		t.Fatal(err)
	}
	return res, StoreReach(m, fp, f.Correct(), s.Intersect(f.Correct()), dist.Time(run.EffectiveMaxSteps()))
}

// TestStoreRetransmitRecoversFromLoss: under plain message loss every op
// still completes (retransmission fills the gaps), the verdict stays
// linearizable, and the retransmit counter shows the mechanism actually
// fired.
func TestStoreRetransmitRecoversFromLoss(t *testing.T) {
	const n = 5
	f := dist.NewFailurePattern(n)
	s := dist.NewProcSet(1, 2)
	scripts, err := GenerateStoreWorkload(StoreWorkloadConfig{
		N: n, S: s, Keys: 8, OpsPerClient: 10, WriteRatio: -1, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := StoreConfig{Keys: 8, Window: 4, Retransmit: true, RTO: 16}
	fp := &sim.FaultPlan{Seed: 11, Loss: 0.1, Dup: 0.1, MaxDelay: 3}
	var retransmits, dropped int64
	for seed := int64(0); seed < 6; seed++ {
		res, _ := runStoreFaulted(t, f, s, cfg, scripts, fp, 10, seed)
		if res.Reason != sim.ReasonStopCond {
			t.Fatalf("seed %d did not complete: %s (%d dropped)", seed, res.Reason, res.MessagesDropped)
		}
		if err := VerifyStoreRunReach(res, f.Correct(), nil); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		dropped += res.MessagesDropped
		for _, p := range s.Members() {
			retransmits += res.Automata[p-1].(*StoreNode).Retransmits()
		}
	}
	if dropped == 0 {
		t.Fatal("fault plan dropped nothing — the scenario tests nothing")
	}
	if retransmits == 0 {
		t.Fatal("loss recovery without a single retransmit is impossible")
	}
}

// TestStoreHealedPartitionCompletesEverything: a partition separating a
// client from one shard's replicas parks that shard's ops; after the heal
// they drain and every client finishes its whole script — graceful
// degradation composing with loss, duplication and the AIMD windows.
func TestStoreHealedPartitionCompletesEverything(t *testing.T) {
	const n, shards, keys = 6, 3, 9
	s := dist.NewProcSet(1, 2)
	f := dist.NewFailurePattern(n)
	scripts, err := GenerateStoreWorkload(StoreWorkloadConfig{
		N: n, S: s, Keys: keys, Shards: shards, OpsPerClient: 9, WriteRatio: -1, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := StoreConfig{
		Keys: keys, Shards: shards, Window: 2,
		AdaptiveWindow: true, MaxWindow: 4, StallSteps: 8,
		Retransmit: true, RTO: 16,
	}
	m, err := cfg.ShardMap(n)
	if err != nil {
		t.Fatal(err)
	}
	// Cut shard 1's whole group off both clients during [30, 200).
	fp := &sim.FaultPlan{
		Seed: 7, Loss: 0.05, Dup: 0.05, MaxDelay: 2,
		Partitions: []dist.Partition{{A: s, B: m.Group(1).Minus(s), From: 30, Until: 200}},
	}
	for seed := int64(0); seed < 6; seed++ {
		res, masks := runStoreFaulted(t, f, s, cfg, scripts, fp, 10, seed)
		full := FullShardSet(shards)
		for _, p := range s.Members() {
			if masks[p].Intersect(full) != full {
				t.Fatalf("a healed partition must not mask any shard: p%d mask %v", int(p), masks[p])
			}
		}
		if res.Reason != sim.ReasonStopCond {
			t.Fatalf("seed %d did not complete: %s", seed, res.Reason)
		}
		if err := VerifyStoreRunReach(res, f.Correct(), nil); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, p := range s.Members() {
			node := res.Automata[p-1].(*StoreNode)
			if node.CompletedOps() != node.ScriptedOps() {
				t.Fatalf("seed %d: p%d completed %d/%d after heal", seed, int(p), node.CompletedOps(), node.ScriptedOps())
			}
		}
	}
}

// TestStoreUnhealedPartitionParksMinority: a partition that never heals cuts
// each client off one shard. Majority-side work completes, the cut shard's
// ops park (pending, never returned, never violating), and the
// reachability-masked verdict accepts the run.
func TestStoreUnhealedPartitionParksMinority(t *testing.T) {
	const n, shards, keys = 6, 3, 9
	s := dist.NewProcSet(1, 2)
	f := dist.NewFailurePattern(n)
	// Hand-built scripts touching every shard: key k lives on shard k%3.
	scripts := make([][]KeyedOp, n)
	scripts[0] = []KeyedOp{
		{Key: 0, Kind: WriteOp, Arg: 10}, {Key: 1, Kind: WriteOp, Arg: 11}, {Key: 2, Kind: WriteOp, Arg: 12},
		{Key: 0, Kind: ReadOp}, {Key: 2, Kind: ReadOp},
	}
	scripts[1] = []KeyedOp{
		{Key: 3, Kind: WriteOp, Arg: 20}, {Key: 4, Kind: WriteOp, Arg: 21}, {Key: 5, Kind: WriteOp, Arg: 22},
		{Key: 4, Kind: ReadOp}, {Key: 5, Kind: ReadOp},
	}
	cfg := StoreConfig{Keys: keys, Shards: shards, Window: 2, Retransmit: true, RTO: 16, MaxRTO: 64}
	// p1 (shard 0's group) is cut from shard 1's replicas {2,5} forever;
	// p2 ∈ {2,5}, so p2 is likewise cut from shard 0's replica p1 — each
	// client loses exactly one shard, and shard 2 stays reachable to both.
	fp := &sim.FaultPlan{Partitions: []dist.Partition{
		{A: dist.NewProcSet(1), B: dist.NewProcSet(2, 5), From: 0, Until: dist.NoCrash},
	}}
	for seed := int64(0); seed < 4; seed++ {
		res, masks := runStoreFaulted(t, f, s, cfg, scripts, fp, 10, seed)
		if masks == nil {
			t.Fatal("an unhealed partition must produce reachability masks")
		}
		if masks[1].Has(1) || masks[2].Has(0) {
			t.Fatalf("masks missed the cut: p1=%v p2=%v", masks[1], masks[2])
		}
		if res.Reason != sim.ReasonStopCond {
			t.Fatalf("seed %d: majority-side work never finished: %s", seed, res.Reason)
		}
		if err := VerifyStoreRunReach(res, f.Correct(), masks); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// The full-completion verdict must reject the same run: the parked
		// minority ops are genuinely incomplete.
		if err := VerifyStoreRunReach(res, f.Correct(), nil); err == nil {
			t.Fatalf("seed %d: unmasked verdict accepted a run with parked ops", seed)
		}
		for _, p := range s.Members() {
			node := res.Automata[p-1].(*StoreNode)
			if node.CompletedOps() >= node.ScriptedOps() {
				t.Fatalf("seed %d: p%d completed everything despite the cut", seed, int(p))
			}
			if node.Retransmits() == 0 {
				t.Fatalf("seed %d: p%d parked without probing (no retransmits)", seed, int(p))
			}
		}
	}
}

// TestStoreReplyDedup drives the client's reply-crediting directly with
// duplicated replies: acks are a set keyed by responder, and stale-phase or
// stale-rid replies are ignored, so no duplication pattern can double-count
// a quorum.
func TestStoreReplyDedup(t *testing.T) {
	cfg := StoreConfig{Keys: 4, Window: 2, Retransmit: true}
	m, err := cfg.ShardMap(3)
	if err != nil {
		t.Fatal(err)
	}
	a := newStoreNode(1, 3, dist.NewProcSet(1), cfg, m, nil, &framePool{})
	a.pend = append(a.pend, storeOp{key: 2, shard: m.Shard(2), rid: 9, phase: 1})
	rep := []queryRepEntry{{Key: 2, RID: 9, TS: Timestamp{Seq: 3, PID: 2}, V: 7}}
	a.absorbQueryReps(rep, 2)
	a.absorbQueryReps(rep, 2) // duplicated delivery
	op := &a.pend[0]
	if op.acks.Len() != 1 || !op.acks.Contains(2) {
		t.Fatalf("duplicated reply double-counted: acks=%v", op.acks)
	}
	if op.best != (Timestamp{Seq: 3, PID: 2}) || op.bestVal != 7 {
		t.Fatalf("reply not credited: best=%v val=%d", op.best, int64(op.bestVal))
	}
	// A stale phase-1 reply after the op moved to phase 2 is ignored.
	op.phase = 2
	op.rid = 10
	op.acks = dist.ProcSet{}
	a.absorbQueryReps(rep, 3)
	if !op.acks.IsEmpty() {
		t.Fatalf("stale-phase reply credited: acks=%v", op.acks)
	}
	// Store acks dedup the same way.
	a.absorbStoreReps([]storeRepEntry{{Key: 2, RID: 10}}, 3)
	a.absorbStoreReps([]storeRepEntry{{Key: 2, RID: 10}}, 3)
	if op.acks.Len() != 1 || !op.acks.Contains(3) {
		t.Fatalf("duplicated store ack double-counted: acks=%v", op.acks)
	}
}

// TestStoreFailureFreeRetransmitFree pins pay-only-on-fault: with
// retransmission armed but no faults injected, no op ever retransmits and
// the message count is identical to the same config without Retransmit.
func TestStoreFailureFreeRetransmitFree(t *testing.T) {
	const n = 5
	f := dist.NewFailurePattern(n)
	s := dist.NewProcSet(1, 2)
	scripts, err := GenerateStoreWorkload(StoreWorkloadConfig{
		N: n, S: s, Keys: 8, OpsPerClient: 12, WriteRatio: -1, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	base := StoreConfig{Keys: 8, Window: 4}
	armed := base
	armed.Retransmit = true
	for seed := int64(0); seed < 4; seed++ {
		rb := runStore(t, f, s, base, scripts, 10, seed)
		ra := runStore(t, f, s, armed, scripts, 10, seed)
		if rb.MessagesSent != ra.MessagesSent {
			t.Fatalf("seed %d: arming retransmission changed failure-free traffic: %d vs %d msgs",
				seed, rb.MessagesSent, ra.MessagesSent)
		}
		for _, p := range s.Members() {
			if rt := ra.Automata[p-1].(*StoreNode).Retransmits(); rt != 0 {
				t.Fatalf("seed %d: p%d retransmitted %d times in a failure-free run", seed, int(p), rt)
			}
		}
	}
}

// TestStoreSweepUnderFaultsWorkerIndependent is the acceptance scenario:
// loss 0.05 + duplication + a healed partition on the sweep engine — every
// verdict linearizable and complete, aggregates (including the fault
// counter histograms) bit-identical at workers 1, 2 and 8.
func TestStoreSweepUnderFaultsWorkerIndependent(t *testing.T) {
	const n, shards = 6, 3
	s := dist.NewProcSet(1, 2, 3)
	scripts, err := GenerateStoreWorkload(StoreWorkloadConfig{
		N: n, S: s, Keys: 9, Shards: shards, OpsPerClient: 8, WriteRatio: -1, Skew: 1.4, Seed: 23,
	})
	if err != nil {
		t.Fatal(err)
	}
	f := dist.NewFailurePattern(n)
	cfg := StoreSweepConfig{
		Pattern: f, S: s,
		Store: StoreConfig{
			Keys: 9, Shards: shards, Window: 2,
			AdaptiveWindow: true, MaxWindow: 6, StallSteps: 8,
			Retransmit: true, RTO: 16,
		},
		Scripts: scripts,
		Stab:    20,
		Faults: &sim.FaultPlan{
			Seed: 99, Loss: 0.05, Dup: 0.05, MaxDelay: 3,
			Partitions: []dist.Partition{{A: dist.NewProcSet(1, 4), B: dist.NewProcSet(2, 5), From: 40, Until: 160}},
		},
		StallLimit: 5_000,
		Seeds:      8,
	}
	base := sweepWorkerIndependent(t, cfg, 2, 8)
	if base.Dropped.Sum == 0 || base.Duplicated.Sum == 0 {
		t.Fatalf("fault plan injected nothing: drops %s, dups %s", base.Dropped.String(), base.Duplicated.String())
	}
}

// TestStoreFaultConfigGates pins the construction-time rejections of the
// fault-related knobs.
func TestStoreFaultConfigGates(t *testing.T) {
	s := dist.NewProcSet(1, 2)
	f := dist.NewFailurePattern(4)
	scripts := [][]KeyedOp{{{Key: 0, Kind: WriteOp, Arg: 1}}}
	base := StoreSweepConfig{
		Pattern: f, S: s, Scripts: scripts, Seeds: 1,
		Store: StoreConfig{Keys: 2, Window: 1},
	}
	lossy := base
	lossy.Faults = &sim.FaultPlan{Loss: 0.1}
	if _, err := StoreSweep(lossy); err == nil || !strings.Contains(err.Error(), "Retransmit") {
		t.Fatalf("loss without Retransmit must be rejected, got %v", err)
	}
	cut := base
	cut.Faults = &sim.FaultPlan{Partitions: []dist.Partition{
		{A: dist.NewProcSet(1), B: dist.NewProcSet(2), From: 0, Until: 10},
	}}
	if _, err := StoreSweep(cut); err == nil || !strings.Contains(err.Error(), "Retransmit") {
		t.Fatalf("partitions without Retransmit must be rejected, got %v", err)
	}
	for _, tc := range []struct {
		name string
		cfg  StoreConfig
		want string
	}{
		{"rto without retransmit", StoreConfig{Keys: 2, Window: 1, RTO: 8}, "Retransmit"},
		{"maxrto without retransmit", StoreConfig{Keys: 2, Window: 1, MaxRTO: 8}, "Retransmit"},
		{"maxrto below rto", StoreConfig{Keys: 2, Window: 1, Retransmit: true, RTO: 16, MaxRTO: 8}, "below"},
		{"negative rto", StoreConfig{Keys: 2, Window: 1, Retransmit: true, RTO: -1}, "negative"},
	} {
		if err := tc.cfg.Validate(4); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want error containing %q", tc.name, err, tc.want)
		}
	}
	// Dup-only faults are fine without retransmission (nothing is lost).
	dupOnly := base
	dupOnly.Faults = &sim.FaultPlan{Dup: 0.2}
	if _, err := StoreSweep(dupOnly); err != nil {
		t.Fatalf("dup-only faults must not require Retransmit: %v", err)
	}
}
