package register

import (
	"testing"

	"repro/internal/dist"
	"repro/internal/sim"
)

// scaleSweepConfig is the shared n=128, shards=16 faulted scenario: 16
// clients spread over every shard group, loss + duplication + delay, a
// healing partition between two replica groups, one crashed replica in a
// third group (its shard stays available through the surviving 7), and
// retransmission with adaptive windows. It exercises processes and shards
// far past the old single-word ceiling of 64.
func scaleSweepConfig(t *testing.T, seeds int64) StoreSweepConfig {
	t.Helper()
	const n, shards, keys = 128, 16, 64
	// One client per shard group: p1..p16 hit groups 0..15 (p replicates
	// shard (p-1) mod 16), so every group serves both client and replica
	// traffic.
	s := dist.RangeSet(1, 16)
	scripts, err := GenerateStoreWorkload(StoreWorkloadConfig{
		N: n, S: s, Keys: keys, Shards: shards, OpsPerClient: 6,
		WriteRatio: -1, Skew: 1.2, Seed: 808,
	})
	if err != nil {
		t.Fatal(err)
	}
	f := dist.NewFailurePattern(n)
	f.CrashAt(119, 30) // shard (119-1)%16 = 6 keeps 7 of 8 replicas
	return StoreSweepConfig{
		Pattern: f, S: s,
		Store: StoreConfig{
			Keys: keys, Shards: shards, Window: 2,
			AdaptiveWindow: true, MaxWindow: 6, StallSteps: 8,
			Retransmit: true, RTO: 24, MaxRTO: 96,
		},
		Scripts: scripts,
		Stab:    20,
		Faults: &sim.FaultPlan{
			Seed: 4242, Loss: 0.03, Dup: 0.03, MaxDelay: 3,
			// Cut shard 0's group off shard 1's during [60, 240): client p1
			// sits in A and p2 in B, so both park cross-side work and drain
			// it after the heal.
			Partitions: []dist.Partition{{
				A:    dist.NewProcSet(1, 17, 33, 49, 65, 81, 97, 113),
				B:    dist.NewProcSet(2, 18, 34, 50, 66, 82, 98, 114),
				From: 60, Until: 240,
			}},
		},
		Seeds:   seeds,
		Workers: 1,
	}
}

// TestStoreScaleSweepWorkerIndependent is the multi-word acceptance
// scenario: an n=128, 16-shard store under loss, duplication, a healing
// partition and a replica crash. Every run must verify linearizable with
// all reachable work complete, and the whole aggregate — step, message,
// fault-counter and per-op latency histograms — must be bit-identical at
// workers 1, 2 and 8.
func TestStoreScaleSweepWorkerIndependent(t *testing.T) {
	if testing.Short() {
		t.Skip("n=128 sweep is a long test")
	}
	base := sweepWorkerIndependent(t, scaleSweepConfig(t, 4), 2, 8)
	if base.Dropped.Sum == 0 || base.Duplicated.Sum == 0 {
		t.Fatalf("fault plan injected nothing: drops %s, dups %s", base.Dropped.String(), base.Duplicated.String())
	}
	if base.Lat.Count == 0 {
		t.Fatal("latency aggregate is empty — per-op observations must merge into the sweep")
	}
}

// TestStoreScaleHighProcessIDs pins correctness of the widened ProcID and
// ShardSet plumbing at the extreme corner: a 256-process, 32-shard system
// whose clients carry IDs above 192 — set bits in the last ProcSet word —
// with a crash at p256 degrading (not disabling) the last shard's group.
func TestStoreScaleHighProcessIDs(t *testing.T) {
	const n, shards, keys = 256, 32, 64
	m, err := NewShardMap(n, keys, shards)
	if err != nil {
		t.Fatal(err)
	}
	// Canonical layout: p replicates shard (p-1) mod 32, so p193 serves
	// shard 0 and p194 shard 1; p256 is one of shard 31's eight replicas.
	s := dist.NewProcSet(193, 194)
	scripts := make([][]KeyedOp, n)
	scripts[192] = []KeyedOp{
		{Key: 0, Kind: WriteOp, Arg: 41}, {Key: 32, Kind: WriteOp, Arg: 43},
		{Key: 0, Kind: ReadOp}, {Key: 31, Kind: WriteOp, Arg: 42},
	}
	scripts[193] = []KeyedOp{
		{Key: 31, Kind: ReadOp}, {Key: 1, Kind: WriteOp, Arg: 44}, {Key: 1, Kind: ReadOp},
	}
	f := dist.NewFailurePattern(n)
	f.CrashAt(256, 25)
	if avail := m.Available(f.Correct()); avail != FullShardSet(shards) {
		t.Fatalf("every shard must stay available, got %v", avail)
	}
	cfg := StoreSweepConfig{
		Pattern: f, S: s,
		Store: StoreConfig{
			Keys: keys, Shards: shards, Window: 2,
			Retransmit: true, RTO: 16,
		},
		Scripts: scripts,
		Stab:    15,
		Faults:  &sim.FaultPlan{Seed: 9, Loss: 0.02, MaxDelay: 2},
		Seeds:   3,
		Workers: 2,
	}
	res, err := StoreSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs != 3 || res.Failures != 0 {
		t.Fatalf("high-ID sweep failed: %s (first seed %d: %v)", res, res.FirstFailSeed, res.FirstFailErr)
	}
}
