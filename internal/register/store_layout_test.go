package register

import (
	"testing"
	"unsafe"

	"repro/internal/dist"
	"repro/internal/sim"
)

// faultsN128Config is the store-faults-n128 benchmark workload, generated
// with workload seed 0: 128 processes, 16 shards of 4 keys, 16 clients with
// 4 ops each, fast reads, adaptive windows and retransmission, under loss,
// duplication, delay, a healing partition between shard groups 0 and 1, and
// pure replica p40 crashing at 50 and recovering at 200.
func faultsN128Config(t testing.TB) StoreSweepConfig {
	t.Helper()
	const n = 128
	f := dist.NewFailurePattern(n)
	f.CrashAt(40, 50)
	f.RecoverAt(40, 200)
	s := dist.RangeSet(1, 16)
	store := StoreConfig{
		Keys: 64, Shards: 16, Window: 2,
		AdaptiveWindow: true, MaxWindow: 6, StallSteps: 8,
		Retransmit: true, RTO: 24, MaxRTO: 96,
		FastReads: true,
	}
	m, err := store.ShardMap(n)
	if err != nil {
		t.Fatal(err)
	}
	scripts, err := GenerateStoreWorkload(StoreWorkloadConfig{
		N: n, S: s, Keys: store.Keys, Shards: store.Shards, OpsPerClient: 4,
		WriteRatio: 0.5, Skew: 1.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return StoreSweepConfig{
		Pattern: f, S: s, Store: store, Scripts: scripts,
		Faults: &sim.FaultPlan{
			Seed: 7, Loss: 0.03, Dup: 0.03, MaxDelay: 3,
			Partitions: []dist.Partition{{A: m.Group(0), B: m.Group(1), From: 60, Until: 300}},
		},
		Seeds: 1, Workers: 1,
	}
}

// TestPureReplicaHasNoClientHalf pins the role-sized node on the
// store-faults-n128 configuration: the 112 processes outside S carry no
// client half, their accessors answer without allocating, and every node's
// replica state is its one 4-key shard (with confirmed timestamps) — the
// E19 value the layout must keep. A recovered replica holds nothing until
// the protocol touches its shard, and then holds the shard again.
func TestPureReplicaHasNoClientHalf(t *testing.T) {
	sc := faultsN128Config(t)
	simCfg, err := sc.SimConfig()
	if err != nil {
		t.Fatal(err)
	}
	n := sc.Pattern.N()
	wantBytes := 4 * int(2*unsafe.Sizeof(Timestamp{})+unsafe.Sizeof(Value(0)))
	nodes := make([]*StoreNode, n)
	for p := 1; p <= n; p++ {
		a := simCfg.Program(dist.ProcID(p), n).(*StoreNode)
		nodes[p-1] = a
		if member := sc.S.Contains(dist.ProcID(p)); member != (a.storeClient != nil) {
			t.Fatalf("p%d: member of S = %v, has a client half = %v", p, member, a.storeClient != nil)
		}
		if got := a.ReplicaStateBytes(); got != wantBytes {
			t.Fatalf("p%d holds %d replica bytes, want its 4-key shard's %d", p, got, wantBytes)
		}
	}
	replica := nodes[39]
	all := FullShardSet(16)
	probe := func() (sum int64) {
		if replica.Done() && replica.DoneOn(all) && replica.Quiescent() {
			sum++
		}
		sum += replica.LatencyHist().Count + replica.CleanLatencyHist().Count + replica.FaultedLatencyHist().Count
		sum += replica.FastReads() + replica.ReadFallbacks() + replica.Retransmits()
		return sum + int64(replica.CompletedOps()+replica.ScriptedOps()+replica.WindowOf(0)+replica.ReplicaStateBytes())
	}
	if allocs := testing.AllocsPerRun(100, func() { probe() }); allocs != 0 {
		t.Fatalf("a pure replica's accessors allocate %.1f times, want 0", allocs)
	}
	if got, want := probe(), 1+int64(wantBytes); got != want {
		t.Fatalf("a pure replica's accessors summed to %d, want done (1) plus its %d replica bytes", got, wantBytes)
	}

	replica.Recover()
	if got := replica.ReplicaStateBytes(); got != 0 {
		t.Fatalf("Recover left %d replica bytes, want 0", got)
	}
	// p40 replicates shard 39 mod 16 = 7; key 7 is the shard's first key.
	ts := Timestamp{Seq: 1, PID: 3}
	replica.serveStores(&sim.Env{}, []storeEntry{{Key: 7, RID: 1, TS: ts, V: 5}}, 3)
	if got := replica.ReplicaStateBytes(); got != wantBytes {
		t.Fatalf("after its shard's first store the replica holds %d bytes, want %d", got, wantBytes)
	}
	if i, ok := replica.locate(7); !ok || replica.ts[i] != ts || replica.val[i] != 5 {
		t.Fatalf("the recovered replica did not apply the store: ts=%v val=%d", replica.ts[i], int64(replica.val[i]))
	}
}

// TestStoreReplicaLayoutOverlappingGroups checks the flat replica layout
// where a process owns several shards of unequal size (7 keys on 3
// shards: 3, 2 and 2 keys): every owned key gets its own slot, each
// shard's keys are contiguous in shard order, and after Recover the state
// regrows shard by shard as the protocol touches it.
func TestStoreReplicaLayoutOverlappingGroups(t *testing.T) {
	const n = 4
	m, err := NewShardMapWithGroups(n, 7, []dist.ProcSet{
		dist.NewProcSet(1, 2), dist.NewProcSet(2, 3), dist.NewProcSet(1, 2, 4),
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := StoreConfig{Keys: 7, Window: 1}
	perKey := int(unsafe.Sizeof(Timestamp{}) + unsafe.Sizeof(Value(0)))
	for p := dist.ProcID(1); p <= n; p++ {
		a := newStoreNode(p, n, dist.ProcSet{}, &cfg, m, nil)
		next, keys := 0, 0
		for sh := 0; sh < m.Shards(); sh++ {
			if !m.Owns(p, sh) {
				continue
			}
			for loc := 0; loc < m.KeysIn(sh); loc++ {
				if i, ok := a.locate(m.KeyAt(sh, loc)); !ok || i != next {
					t.Fatalf("p%d key %d (shard %d): slot %d, %v; want slot %d", int(p), m.KeyAt(sh, loc), sh, i, ok, next)
				}
				next++
			}
			keys += m.KeysIn(sh)
		}
		if len(a.ts) != keys || len(a.val) != keys || a.ReplicaStateBytes() != keys*perKey {
			t.Fatalf("p%d: %d ts, %d val slots and %d bytes for %d owned keys", int(p), len(a.ts), len(a.val), a.ReplicaStateBytes(), keys)
		}
		a.Recover()
		held := 0
		for sh := m.Shards() - 1; sh >= 0; sh-- {
			if !m.Owns(p, sh) {
				continue
			}
			a.locate(sh) // key sh is shard sh's first key
			held += m.KeysIn(sh)
			if got := a.ReplicaStateBytes(); got != held*perKey {
				t.Fatalf("p%d after touching shard %d: %d bytes, want %d", int(p), sh, got, held*perKey)
			}
		}
	}
	for _, sh := range []int{0, 1, 63, 64, 65, 130, 255, 256} {
		s := NewShardSet(0, 5, 63, 64, 100, 200, 255)
		want := 0
		s.ForEach(func(x int) {
			if x < sh {
				want++
			}
		})
		if got := s.rank(sh); got != want {
			t.Fatalf("rank(%d) = %d, want %d", sh, got, want)
		}
	}
}

// TestStoreConstructionBudget pins what a fresh runner costs on the
// store-faults-n128 configuration: NewRunner plus its first Reset, which
// builds all 128 nodes. Pure replicas carry no client half and their
// replica state covers the owned keys only, which makes it 169,816 B on
// amd64; the budget leaves room for allocator and toolchain drift, not for
// a client half at every replica.
func TestStoreConstructionBudget(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("times a benchmark loop; the race detector changes allocation")
	}
	simCfg, err := faultsN128Config(t).SimConfig()
	if err != nil {
		t.Fatal(err)
	}
	res := testing.Benchmark(func(b *testing.B) {
		for range b.N {
			r, err := sim.NewRunner(simCfg)
			if err != nil {
				b.Fatal(err)
			}
			r.Reset(0)
		}
	})
	const budget = 200_000
	if got := res.AllocedBytesPerOp(); got > budget {
		t.Fatalf("a fresh n=128 store runner allocates %d B, want ≤ %d", got, budget)
	}
}
