package register

import (
	"testing"

	"repro/internal/dist"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestStoreRecoveryOffByteIdentical pins the recovery-free faulted wire
// stream (canonical wireStream hashes): with no RecoverAt in the pattern and no OneWay partition, the recovery machinery
// (runner recovery events, the replica's lazy re-allocation, the directional
// partition check) must leave every send byte-for-byte untouched — including
// runs that exercise the whole fault-injection path (loss + duplication +
// delay + a healing symmetric partition + fast reads). The failure-free tiers
// are already pinned by TestStoreFastReadsOffByteIdentical; this covers the
// faulted path the partition refactor touched.
func TestStoreRecoveryOffByteIdentical(t *testing.T) {
	const n = 5
	f := dist.NewFailurePattern(n)
	s := dist.NewProcSet(1, 2)
	scripts, err := GenerateStoreWorkload(StoreWorkloadConfig{
		N: n, S: s, Keys: 8, Shards: 2, OpsPerClient: 10, WriteRatio: -1, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := StoreConfig{
		Keys: 8, Shards: 2, Window: 4, Piggyback: true, FastReads: true,
		Retransmit: true, RTO: 16,
	}
	fp := &sim.FaultPlan{
		Seed: 99, Loss: 0.05, Dup: 0.05, MaxDelay: 3,
		Partitions: []dist.Partition{{
			A: dist.NewProcSet(1, 4), B: dist.NewProcSet(2, 5), From: 40, Until: 160,
		}},
	}
	golden := [4]uint64{0x3024a88696367edc, 0x7adb8b20d4ac75ec, 0xf64c6a0bf7c6815c, 0x7c636b29d3a53c84}
	for seed := int64(0); seed < 4; seed++ {
		res, _ := runStoreFaulted(t, f, s, cfg, scripts, fp, 10, seed)
		if got := wireHash(res); got != golden[seed] {
			t.Errorf("seed %d: faulted wire stream hash 0x%016x, want the golden 0x%016x — the recovery-free path is no longer byte-identical",
				seed, got, golden[seed])
		}
	}
}

// recoveryScenario builds the shared replica crash-recovery scenario: n = 6,
// three shards (groups {1,4}, {2,5}, {3,6}), clients {1,2,3}; replica p5
// crashes at t=40 and recovers at t=120 with its shard-1 state wiped, under
// loss + duplication + delay and a one-way partition cutting clients p1/p3
// off p2 — shard 1's only never-crashed replica — during [30, 150). Shard-1
// operations park through the recovery window and drain after the heal, so
// the recovered replica sees live quorum traffic and repopulates.
func recoveryScenario(t *testing.T) (*dist.FailurePattern, dist.ProcSet, StoreConfig, [][]KeyedOp, *sim.FaultPlan) {
	t.Helper()
	const n, shards, keys = 6, 3, 9
	s := dist.NewProcSet(1, 2, 3)
	scripts, err := GenerateStoreWorkload(StoreWorkloadConfig{
		N: n, S: s, Keys: keys, Shards: shards, OpsPerClient: 10, WriteRatio: -1, Skew: 1.2, Seed: 61,
	})
	if err != nil {
		t.Fatal(err)
	}
	f := dist.NewFailurePattern(n)
	f.CrashAt(5, 40)
	f.RecoverAt(5, 120)
	cfg := StoreConfig{
		Keys: keys, Shards: shards, Window: 2, Piggyback: true,
		Retransmit: true, RTO: 16,
	}
	fp := &sim.FaultPlan{
		Seed: 7, Loss: 0.05, Dup: 0.05, MaxDelay: 2,
		Partitions: []dist.Partition{{
			A: dist.NewProcSet(1, 3), B: dist.NewProcSet(2), From: 30, Until: 150, OneWay: true,
		}},
	}
	return f, s, cfg, scripts, fp
}

// TestStoreReplicaCrashRecoveryRepopulates is the tentpole's store-side
// acceptance: a replica loses its volatile state mid-run and rejoins as a
// learner. Every reachable operation still completes, every per-key history
// stays linearizable (the wiped replica's zero timestamps only lose
// max-merges; its zero confirmed-ts keeps conf ≤ ts), and the recovered
// node's replica state — emptied at recovery — grows back to full size purely
// through protocol traffic.
func TestStoreReplicaCrashRecoveryRepopulates(t *testing.T) {
	f, s, cfg, scripts, fp := recoveryScenario(t)
	m, err := cfg.ShardMap(f.N())
	if err != nil {
		t.Fatal(err)
	}
	// A freshly built replica's state size is the repopulation target; its
	// Recover() empties it completely.
	fresh := newStoreNode(5, f.N(), s, cfg, m, nil, &framePool{})
	fullBytes := fresh.ReplicaStateBytes()
	if fullBytes == 0 {
		t.Fatal("p5 owns shard 1; its fresh replica state cannot be empty")
	}
	fresh.Recover()
	if got := fresh.ReplicaStateBytes(); got != 0 {
		t.Fatalf("Recover() left %d replica bytes, want 0 — volatile state must be lost", got)
	}
	for seed := int64(0); seed < 4; seed++ {
		res, masks := runStoreFaulted(t, f, s, cfg, scripts, fp, 10, seed)
		if res.Reason != sim.ReasonStopCond {
			t.Fatalf("seed %d did not complete: %s", seed, res.Reason)
		}
		if err := VerifyStoreRunReach(res, f.Correct(), masks); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		var recovered bool
		for _, e := range res.Trace.Events() {
			if e.Kind == trace.RecoverKind {
				if e.P != 5 || e.T != 120 {
					t.Fatalf("seed %d: unexpected recovery event %+v", seed, e)
				}
				recovered = true
			}
		}
		if !recovered {
			t.Fatalf("seed %d: the run finished before the recovery fired — the scenario tests nothing", seed)
		}
		node5 := res.Automata[4].(*StoreNode)
		if got := node5.ReplicaStateBytes(); got != fullBytes {
			t.Fatalf("seed %d: recovered replica holds %d bytes, want it repopulated to %d through write-backs",
				seed, got, fullBytes)
		}
	}
}

// TestStoreClientCrashRecoveryDropsScript pins the client side of recovery
// semantics: the operation script dies with the process. A recovered client
// must not replay operations whose values may already be applied (and whose
// request ids could collide with stale replies), so the fresh incarnation
// comes back with an empty script and completes nothing — while still serving
// its replica role, and while the surviving client finishes everything.
func TestStoreClientCrashRecoveryDropsScript(t *testing.T) {
	const n = 5
	s := dist.NewProcSet(1, 2)
	scripts, err := GenerateStoreWorkload(StoreWorkloadConfig{
		N: n, S: s, Keys: 8, Shards: 2, OpsPerClient: 10, WriteRatio: -1, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	f := dist.NewFailurePattern(n)
	f.CrashAt(2, 30)
	f.RecoverAt(2, 100)
	cfg := StoreConfig{Keys: 8, Shards: 2, Window: 4, Retransmit: true, RTO: 16}
	fp := &sim.FaultPlan{Seed: 3, Loss: 0.05, Dup: 0.05, MaxDelay: 2}
	for seed := int64(0); seed < 4; seed++ {
		res, masks := runStoreFaulted(t, f, s, cfg, scripts, fp, 10, seed)
		if res.Reason != sim.ReasonStopCond {
			t.Fatalf("seed %d did not complete: %s", seed, res.Reason)
		}
		if err := VerifyStoreRunReach(res, f.Correct(), masks); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		node2 := res.Automata[1].(*StoreNode)
		if node2.ScriptedOps() != 0 || node2.CompletedOps() != 0 {
			t.Fatalf("seed %d: recovered client p2 has %d scripted / %d completed ops, want 0/0 — the script must die with the process",
				seed, node2.ScriptedOps(), node2.CompletedOps())
		}
		node1 := res.Automata[0].(*StoreNode)
		if node1.CompletedOps() != node1.ScriptedOps() {
			t.Fatalf("seed %d: surviving client p1 completed %d/%d", seed, node1.CompletedOps(), node1.ScriptedOps())
		}
	}
}

// TestStoreRecoverySweepWorkerIndependent is the acceptance sweep: the
// replica crash-recovery scenario (one-way partition included) on the sweep
// engine — every seed completes all reachable operations and stays per-key
// linearizable, and the whole aggregate is bit-identical at workers 1, 2
// and 8 (recovery events are part of the scheduled run; fault decisions stay
// pure in the message identity).
func TestStoreRecoverySweepWorkerIndependent(t *testing.T) {
	f, s, cfg, scripts, fp := recoveryScenario(t)
	sweepCfg := StoreSweepConfig{
		Pattern: f, S: s,
		Store:      cfg,
		Scripts:    scripts,
		Stab:       10,
		Faults:     fp,
		StallLimit: 10_000,
		Seeds:      8,
	}
	base := sweepWorkerIndependent(t, sweepCfg, 2, 8)
	if base.Dropped.Sum == 0 || base.Duplicated.Sum == 0 {
		t.Fatalf("fault plan injected nothing: drops %s, dups %s", base.Dropped.String(), base.Duplicated.String())
	}
}
