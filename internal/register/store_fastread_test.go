package register

import (
	"testing"

	"repro/internal/dist"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// TestStoreFastReadsOffByteIdentical pins the FastReads-off wire streams
// (canonical wireStream hashes) across three config tiers and four scheduler
// seeds each. The rendering includes every entry's CTS, so a nonzero CTS
// leaking into a FastReads-off run — or any schedule change — breaks the
// hash.
func TestStoreFastReadsOffByteIdentical(t *testing.T) {
	const n = 5
	f := dist.NewFailurePattern(n)
	s := dist.NewProcSet(1, 2)
	wl := func(keys, shards, ops int, seed int64) [][]KeyedOp {
		scripts, err := GenerateStoreWorkload(StoreWorkloadConfig{
			N: n, S: s, Keys: keys, Shards: shards, OpsPerClient: ops, WriteRatio: -1, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		return scripts
	}
	cases := []struct {
		name    string
		cfg     StoreConfig
		scripts [][]KeyedOp
		golden  [4]uint64
	}{
		{"batched", StoreConfig{Keys: 8, Shards: 2, Window: 4}, wl(8, 2, 10, 11),
			[4]uint64{0x7838422700c73333, 0x4beac58cb0bb2e6b, 0xa25975f6ae3af178, 0xd3027c02d3855252}},
		{"piggyback+retransmit", StoreConfig{Keys: 8, Shards: 2, Window: 4, Piggyback: true, Retransmit: true, RTO: 16}, wl(8, 2, 10, 11),
			[4]uint64{0x21537c6900867ab3, 0x4beac58cb0bb2e6b, 0xa25975f6ae3af178, 0x934a0fdf61f709c1}},
		{"fullstack", StoreConfig{
			Keys: 12, Shards: 4, Window: 8, Piggyback: true, CoalesceDelay: 2,
			OpenLoop: true, ArrivalGap: 3, ArrivalJitter: true,
			Retransmit: true, RTO: 16,
		}, wl(12, 4, 10, 11),
			[4]uint64{0xf39090fc97a6add5, 0x015f707857bdcaaf, 0x4296481e72d4ebdc, 0xa7005fd9bded16fe}},
	}
	for _, tc := range cases {
		for seed := int64(0); seed < 4; seed++ {
			res := runStore(t, f, s, tc.cfg, tc.scripts, 10, seed)
			if got := wireHash(res); got != tc.golden[seed] {
				t.Errorf("%s seed %d: FastReads-off wire stream hash 0x%016x, want the golden 0x%016x — the off path is no longer byte-identical",
					tc.name, seed, got, tc.golden[seed])
			}
		}
	}
}

// TestStoreFastReadQuorumTracking unit-tests the elision predicate directly
// on a hand-driven client: unanimity survives duplicates, divergence makes
// the read ineligible, a confirmation below the maximum ts does not rescue
// it, and only a confirmation of the maximum itself does. Writes and
// FastReads-off ops are never eligible.
func TestStoreFastReadQuorumTracking(t *testing.T) {
	const n = 5
	cfg := StoreConfig{Keys: 4, Window: 2, FastReads: true}
	m, err := cfg.ShardMap(n)
	if err != nil {
		t.Fatal(err)
	}
	node := newStoreNode(4, n, dist.NewProcSet(4), cfg, m, nil, &framePool{})
	node.pend = append(node.pend, storeOp{key: 1, rid: 7, kind: ReadOp, phase: 1})
	op := &node.pend[0]

	ts3 := Timestamp{Seq: 3, PID: 2}
	ts5 := Timestamp{Seq: 5, PID: 3}
	node.absorbQueryReps([]queryRepEntry{{Key: 1, RID: 7, TS: ts3, V: 30}}, 2)
	if !op.sawReply || op.diverged {
		t.Fatalf("after one reply: sawReply=%v diverged=%v, want true/false", op.sawReply, op.diverged)
	}
	if !node.fastReadEligible(op) {
		t.Fatal("a unanimous quorum must be eligible for the one-phase fast read")
	}
	// A fault-injected duplicate of the same reply must not fake divergence.
	node.absorbQueryReps([]queryRepEntry{{Key: 1, RID: 7, TS: ts3, V: 30}}, 2)
	if op.diverged {
		t.Fatal("a duplicate of the same reply must not count as divergence")
	}
	// A second replica disagrees: without a confirmation of the maximum the
	// read must fall back to the write-back round.
	node.absorbQueryReps([]queryRepEntry{{Key: 1, RID: 7, TS: ts5, V: 50}}, 3)
	if !op.diverged || op.best != ts5 || op.bestVal != 50 {
		t.Fatalf("after divergence: diverged=%v best=%+v val=%d", op.diverged, op.best, int64(op.bestVal))
	}
	if node.fastReadEligible(op) {
		t.Fatal("a non-unanimous quorum above the confirmed ts must write back")
	}
	// A confirmation of the *smaller* ts changes nothing — the maximum is
	// still unconfirmed, and eliding would return a value no quorum holds.
	node.absorbQueryReps([]queryRepEntry{{Key: 1, RID: 7, TS: ts3, V: 30, CTS: ts3}}, 5)
	if node.fastReadEligible(op) {
		t.Fatal("a confirmation below the maximum ts must not enable elision")
	}
	// A reply confirming the maximum itself proves it rests at a quorum.
	node.absorbQueryReps([]queryRepEntry{{Key: 1, RID: 7, TS: ts5, V: 50, CTS: ts5}}, 5)
	if op.bestConf != ts5 || !node.fastReadEligible(op) {
		t.Fatalf("bestConf=%+v eligible=%v, want ts5/true", op.bestConf, node.fastReadEligible(op))
	}

	wop := storeOp{key: 1, kind: WriteOp, phase: 1}
	if node.fastReadEligible(&wop) {
		t.Fatal("a write is never eligible for elision")
	}
	off := newStoreNode(4, n, dist.NewProcSet(4), StoreConfig{Keys: 4, Window: 2}, m, nil, &framePool{})
	rop := storeOp{key: 1, kind: ReadOp, phase: 1}
	if off.fastReadEligible(&rop) {
		t.Fatal("FastReads off must never elide")
	}

	// The confirmed-ts state is paid for only when the feature is on: 16
	// bytes per owned key on top of the 24 for ts+val.
	onOwner := newStoreNode(1, n, dist.NewProcSet(1), cfg, m, nil, &framePool{})
	offOwner := newStoreNode(1, n, dist.NewProcSet(1), StoreConfig{Keys: 4, Window: 2}, m, nil, &framePool{})
	if on, off := onOwner.ReplicaStateBytes(), offOwner.ReplicaStateBytes(); on != off+4*16 {
		t.Fatalf("FastReads replica bytes %d, want %d+64", on, off)
	}
}

// TestStoreFastReadReducesMessagesAndLatency is E31's claim as an assertion:
// on the failure-free read-heavy zipf workload (write ratio 0.1), enabling
// FastReads cuts total messages by at least 30% and the p50 op latency to
// at most half, while every run stays linearizable and nearly every read
// completes in one phase.
func TestStoreFastReadReducesMessagesAndLatency(t *testing.T) {
	const n = 5
	f := dist.NewFailurePattern(n)
	s := dist.NewProcSet(1, 2, 3)
	scripts, err := GenerateStoreWorkload(StoreWorkloadConfig{
		N: n, S: s, Keys: 12, Shards: 4, OpsPerClient: 12, WriteRatio: 0.1, Skew: 1.3, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	var msgs [2]int64
	var lat [2]sweep.Hist
	var fast, fall int64
	for i, on := range []bool{false, true} {
		cfg := StoreConfig{Keys: 12, Shards: 4, Window: 4, FastReads: on}
		for seed := int64(0); seed < 6; seed++ {
			res := runStore(t, f, s, cfg, scripts, 10, seed)
			if err := VerifyStoreRunReach(res, f.Correct(), nil); err != nil {
				t.Fatalf("fastreads=%v seed %d: %v", on, seed, err)
			}
			msgs[i] += res.MessagesSent
			for _, a := range res.Automata {
				if node, ok := a.(*StoreNode); ok {
					lat[i].Merge(node.LatencyHist())
					if on {
						fast += node.FastReads()
						fall += node.ReadFallbacks()
					} else if node.FastReads() != 0 || node.ReadFallbacks() != 0 {
						t.Fatalf("FastReads off must keep the counters at zero, got %d/%d",
							node.FastReads(), node.ReadFallbacks())
					}
				}
			}
		}
	}
	if fast == 0 {
		t.Fatal("no read completed in one phase on the failure-free read-heavy workload")
	}
	if msgs[1]*10 > msgs[0]*7 {
		t.Fatalf("FastReads cut messages %d → %d (%.1f%%), want ≥ 30%%",
			msgs[0], msgs[1], 100*(1-float64(msgs[1])/float64(msgs[0])))
	}
	p50off, p50on := lat[0].Quantile(0.50), lat[1].Quantile(0.50)
	if 2*p50on > p50off {
		t.Fatalf("FastReads p50 %d vs %d off — want ≤ half", p50on, p50off)
	}
	t.Logf("msgs %d → %d (−%.1f%%), p50 %d → %d, fastreads=%d fallbacks=%d",
		msgs[0], msgs[1], 100*(1-float64(msgs[1])/float64(msgs[0])), p50off, p50on, fast, fall)
}

// fastReadFaultedSweepConfig is a write-contended faulted scenario in which
// unanimity genuinely breaks: three clients share zipf-hot keys across three
// shards under loss, duplication, extra delay and a healing partition, with
// FastReads on. Fast reads and write-back fallbacks both occur, and some
// ops pay retransmissions (populating the faulted latency split).
func fastReadFaultedSweepConfig(t *testing.T, seeds int64) StoreSweepConfig {
	t.Helper()
	const n, shards = 6, 3
	s := dist.NewProcSet(1, 2, 3)
	scripts, err := GenerateStoreWorkload(StoreWorkloadConfig{
		N: n, S: s, Keys: 9, Shards: shards, OpsPerClient: 10, WriteRatio: 0.4, Skew: 1.4, Seed: 23,
	})
	if err != nil {
		t.Fatal(err)
	}
	return StoreSweepConfig{
		Pattern: dist.NewFailurePattern(n), S: s,
		Store: StoreConfig{
			Keys: 9, Shards: shards, Window: 2, Piggyback: true,
			AdaptiveWindow: true, MaxWindow: 6, StallSteps: 8,
			Retransmit: true, RTO: 16,
			FastReads: true,
		},
		Scripts: scripts,
		Stab:    10,
		Faults: &sim.FaultPlan{
			Seed: 99, Loss: 0.05, Dup: 0.05, MaxDelay: 3,
			Partitions: []dist.Partition{{A: dist.NewProcSet(1, 4), B: dist.NewProcSet(2, 5), From: 40, Until: 160}},
		},
		StallLimit: 5000,
		Seeds:      seeds,
	}
}

// TestStoreFastReadSweepFallbacksAndWorkerIndependent drives fast reads
// through the adversarial network: every run must stay linearizable, the
// sweep must observe both one-phase reads and write-back fallbacks (the
// divergence case is real, not vacuous), the latency split must partition
// the total histogram with both sides populated, and the whole aggregate —
// counters and split histograms included — must be bit-identical at
// workers 1, 2 and 8.
func TestStoreFastReadSweepFallbacksAndWorkerIndependent(t *testing.T) {
	base := sweepWorkerIndependent(t, fastReadFaultedSweepConfig(t, 8), 2, 8)
	if base.FastReads.Sum == 0 {
		t.Fatal("no fast read completed — the feature never engaged")
	}
	if base.Fallbacks.Sum == 0 {
		t.Fatal("no read fell back — write contention under faults must break unanimity somewhere")
	}
	if base.LatClean.Count == 0 || base.LatFaulted.Count == 0 {
		t.Fatalf("latency split is vacuous: clean %d ops, faulted %d ops",
			base.LatClean.Count, base.LatFaulted.Count)
	}
	if base.LatClean.Count+base.LatFaulted.Count != base.Lat.Count ||
		base.LatClean.Sum+base.LatFaulted.Sum != base.Lat.Sum {
		t.Fatalf("clean+faulted must partition the total: %d+%d vs %d ops, %d+%d vs %d sum",
			base.LatClean.Count, base.LatFaulted.Count, base.Lat.Count,
			base.LatClean.Sum, base.LatFaulted.Sum, base.Lat.Sum)
	}
}

// TestStoreFastReadCrashShardDegradesIdentically reruns the whole-group
// crash scenario with FastReads on and off: the dead shard's ops stay stuck
// either way (a fast read still needs its full Σ_{S_i} quorum to answer
// phase 1), live shards complete fully, and every node retires exactly the
// same number of ops in both modes.
func TestStoreFastReadCrashShardDegradesIdentically(t *testing.T) {
	const n, shards, keys = 6, 3, 9
	s := dist.NewProcSet(1, 2, 3)
	scripts, err := GenerateStoreWorkload(StoreWorkloadConfig{
		N: n, S: s, Keys: keys, Shards: shards, OpsPerClient: 9, WriteRatio: -1, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := StoreConfig{Keys: keys, Shards: shards, Window: 2}.ShardMap(n)
	if err != nil {
		t.Fatal(err)
	}
	const dead = 1
	for seed := int64(0); seed < 4; seed++ {
		f := dist.NewFailurePattern(n)
		for _, p := range m.Group(dead).Members() {
			f.CrashAt(p, 0)
		}
		var completed [2][]int
		var anyFast bool
		for i, on := range []bool{false, true} {
			cfg := StoreConfig{Keys: keys, Shards: shards, Window: 2, FastReads: on}
			res := runStore(t, f, s, cfg, scripts, 150, seed)
			if err := VerifyStoreRunReach(res, f.Correct(), nil); err != nil {
				t.Fatalf("fastreads=%v seed %d: %v", on, seed, err)
			}
			for key, ops := range ExtractKeyedOps(res.Trace) {
				if m.Shard(key) != dead {
					continue
				}
				for _, o := range ops {
					if o.Complete {
						t.Fatalf("fastreads=%v seed %d: op %v completed on dead-shard key %d", on, seed, o, key)
					}
				}
			}
			for _, a := range res.Automata {
				node := a.(*StoreNode)
				completed[i] = append(completed[i], node.CompletedOps())
				anyFast = anyFast || node.FastReads() > 0
			}
		}
		for p := range completed[0] {
			if completed[0][p] != completed[1][p] {
				t.Fatalf("seed %d: p%d completed %d ops without FastReads but %d with — degradation must be identical",
					seed, p+1, completed[0][p], completed[1][p])
			}
		}
		if !anyFast {
			t.Fatalf("seed %d: no fast read on the live shards — the comparison tests nothing", seed)
		}
	}
}

// TestStoreFastReadScaleSweepWorkerIndependent is the adversarial scale
// acceptance row: the n=128, 16-shard faulted scenario of PR 8 with
// FastReads on. Linearizable everywhere, fast reads actually firing, and
// the whole aggregate — fast-read/fallback counters and the fault-split
// latency histograms included — bit-identical at workers 1, 2 and 8.
func TestStoreFastReadScaleSweepWorkerIndependent(t *testing.T) {
	if testing.Short() {
		t.Skip("n=128 sweep is a long test")
	}
	cfg := scaleSweepConfig(t, 4)
	cfg.Store.FastReads = true
	base := sweepWorkerIndependent(t, cfg, 2, 8)
	if base.FastReads.Sum == 0 {
		t.Fatal("no fast read at n=128 — the feature never engaged at scale")
	}
	if base.LatFaulted.Count == 0 {
		t.Fatal("no faulted op at n=128 under loss+partition — the latency split is vacuous")
	}
}
