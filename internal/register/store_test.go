package register

import (
	"sort"
	"testing"

	"repro/internal/dist"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// runStore executes one failure-free-network store run (runStoreFaulted
// without a fault plan).
func runStore(t *testing.T, f *dist.FailurePattern, s dist.ProcSet, cfg StoreConfig, scripts [][]KeyedOp, stab dist.Time, seed int64) *sim.Result {
	t.Helper()
	res, _ := runStoreFaulted(t, f, s, cfg, scripts, nil, stab, seed)
	return res
}

// sweepWorkerIndependent runs cfg's sweep on one worker and again on each
// pool size in workers, requires every seed to verify and every aggregate to
// be bit-identical across the pool sizes, and returns the one-worker result.
func sweepWorkerIndependent(t *testing.T, cfg StoreSweepConfig, workers ...int) *sweep.Result {
	t.Helper()
	cfg.Workers = 1
	base, err := StoreSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if base.Runs != cfg.Seeds || base.Failures != 0 {
		t.Fatalf("sweep failed: %s (first seed %d: %v)", base, base.FirstFailSeed, base.FirstFailErr)
	}
	for _, w := range workers {
		cfg.Workers = w
		got, err := StoreSweep(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if *got != *base {
			t.Fatalf("workers=%d diverged:\n  1: %+v\n  %d: %+v", w, base, w, got)
		}
	}
	return base
}

func TestStoreSequentialKeyed(t *testing.T) {
	const n = 4
	f := dist.NewFailurePattern(n)
	s := dist.NewProcSet(1, 2)
	scripts := make([][]KeyedOp, n)
	scripts[0] = []KeyedOp{
		{Key: 0, Kind: WriteOp, Arg: 5},
		{Key: 0, Kind: ReadOp},
		{Key: 1, Kind: WriteOp, Arg: 7},
	}
	scripts[1] = []KeyedOp{
		{Key: 0, Kind: ReadOp},
		{Key: 1, Kind: ReadOp},
		{Key: 2, Kind: ReadOp},
	}
	for seed := int64(0); seed < 10; seed++ {
		res := runStore(t, f, s, StoreConfig{Keys: 3, Window: 1}, scripts, 10, seed)
		if err := VerifyStoreRunReach(res, f.Correct(), nil); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		byKey := KeyedOps(res.Ops)
		if got := len(byKey[0]); got != 3 {
			t.Fatalf("seed %d: key 0 has %d ops, want 3", seed, got)
		}
		// p1 reads its own completed write of key 0: program order per key.
		for _, o := range byKey[0] {
			if o.Proc == 1 && o.Kind == ReadOp && o.Ret != 5 {
				t.Fatalf("seed %d: p1 read key0 = %d, want 5", seed, int64(o.Ret))
			}
		}
		// Key 2 is only ever read: every read returns the initial 0.
		for _, o := range byKey[2] {
			if o.Ret != 0 {
				t.Fatalf("seed %d: untouched key2 read %d, want 0", seed, int64(o.Ret))
			}
		}
	}
}

// opIntervals flattens a run's keyed records into per-process operation
// windows, preserving the key for per-key order checks.
type keyedInterval struct {
	key      int
	invoked  dist.Time
	returned dist.Time
}

func intervalsByProc(t *testing.T, res *sim.Result) map[dist.ProcID][]keyedInterval {
	t.Helper()
	out := make(map[dist.ProcID][]keyedInterval)
	for key, ops := range KeyedOps(res.Ops) {
		for _, o := range ops {
			if !o.Complete {
				continue
			}
			out[o.Proc] = append(out[o.Proc], keyedInterval{key: key, invoked: o.Invoked, returned: o.Returned})
		}
	}
	for _, ivs := range out {
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].invoked < ivs[j].invoked })
	}
	return out
}

func TestStorePipeliningOverlapsDistinctKeysOnly(t *testing.T) {
	const n, window = 5, 3
	f := dist.NewFailurePattern(n)
	s := dist.NewProcSet(1, 2)
	scripts, err := GenerateStoreWorkload(StoreWorkloadConfig{
		N: n, S: s, Keys: 8, OpsPerClient: 10, WriteRatio: -1, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	sawOverlap := false
	for seed := int64(0); seed < 8; seed++ {
		res := runStore(t, f, s, StoreConfig{Keys: 8, Window: window}, scripts, 10, seed)
		if err := VerifyStoreRunReach(res, f.Correct(), nil); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for p, ivs := range intervalsByProc(t, res) {
			for i := range ivs {
				concurrent := 1
				for j := range ivs {
					if i == j {
						continue
					}
					overlap := ivs[i].invoked < ivs[j].returned && ivs[j].invoked < ivs[i].returned
					if !overlap {
						continue
					}
					concurrent++
					if ivs[i].key == ivs[j].key {
						t.Fatalf("seed %d: p%d has two concurrent ops on key %d — the window must hold distinct keys",
							seed, int(p), ivs[i].key)
					}
				}
				if concurrent > window {
					t.Fatalf("seed %d: p%d had %d concurrent ops, window is %d", seed, int(p), concurrent, window)
				}
				if concurrent > 1 {
					sawOverlap = true
				}
			}
		}
	}
	if !sawOverlap {
		t.Fatal("pipelining never overlapped two operations — the window is not being used")
	}
}

func TestStorePipeliningReducesTimeToCompletion(t *testing.T) {
	const n = 5
	f := dist.NewFailurePattern(n)
	s := dist.NewProcSet(1, 2, 3)
	scripts, err := GenerateStoreWorkload(StoreWorkloadConfig{
		N: n, S: s, Keys: 10, OpsPerClient: 10, WriteRatio: -1, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	ticks := make(map[int]int64)
	for _, window := range []int{1, 4} {
		for seed := int64(0); seed < 6; seed++ {
			res := runStore(t, f, s, StoreConfig{Keys: 10, Window: window}, scripts, 10, seed)
			if err := VerifyStoreRunReach(res, f.Correct(), nil); err != nil {
				t.Fatalf("window %d seed %d: %v", window, seed, err)
			}
			ticks[window] += res.Ticks
		}
	}
	if ticks[4] >= ticks[1] {
		t.Fatalf("window=4 took %d ticks, window=1 took %d — pipelining must reduce time to completion",
			ticks[4], ticks[1])
	}
}

func TestStoreSurvivesCrashes(t *testing.T) {
	const n = 6
	s := dist.NewProcSet(1, 2, 3)
	scripts, err := GenerateStoreWorkload(StoreWorkloadConfig{
		N: n, S: s, Keys: 6, OpsPerClient: 6, WriteRatio: -1, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 10; seed++ {
		f := dist.NewFailurePattern(n)
		f.CrashAt(6, dist.Time(10+seed*5)) // a replica outside S
		if seed%2 == 0 {
			f.CrashAt(3, dist.Time(25+seed)) // a client mid-run
		}
		res := runStore(t, f, s, StoreConfig{Keys: 6, Window: 2}, scripts, 200, seed)
		if err := VerifyStoreRunReach(res, f.Correct(), nil); err != nil {
			t.Fatalf("seed %d on %v: %v", seed, f, err)
		}
	}
}

func TestStoreReadOnlyWorkload(t *testing.T) {
	// A WriteRatio of 0 must be honored (the regression behind the
	// single-register workload fix): every operation is a read of the
	// initial value.
	const n = 4
	f := dist.NewFailurePattern(n)
	s := dist.NewProcSet(1, 2)
	scripts, err := GenerateStoreWorkload(StoreWorkloadConfig{
		N: n, S: s, Keys: 4, OpsPerClient: 8, WriteRatio: 0, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := runStore(t, f, s, StoreConfig{Keys: 4, Window: 2}, scripts, 10, 1)
	if err := VerifyStoreRunReach(res, f.Correct(), nil); err != nil {
		t.Fatal(err)
	}
	for key, ops := range KeyedOps(res.Ops) {
		for _, o := range ops {
			if o.Kind != ReadOp {
				t.Fatalf("read-only workload executed %v on key %d", o, key)
			}
			if o.Ret != 0 {
				t.Fatalf("read-only key %d returned %d, want 0", key, int64(o.Ret))
			}
		}
	}
}

func TestStoreProgramConstructionErrors(t *testing.T) {
	const n = 3
	s := dist.NewProcSet(1, 2)
	valid := [][]KeyedOp{{{Key: 0, Kind: ReadOp}}}
	if _, err := StoreProgram(n, s, StoreConfig{Keys: 2, Window: 1}, valid); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if _, err := StoreProgram(n, s, StoreConfig{Keys: 3, Shards: 3, Window: 1}, valid); err != nil {
		t.Fatalf("valid sharded config rejected: %v", err)
	}
	cases := []struct {
		name    string
		cfg     StoreConfig
		scripts [][]KeyedOp
	}{
		{"no keys", StoreConfig{Keys: 0, Window: 1}, valid},
		{"zero window", StoreConfig{Keys: 2}, valid},
		{"negative window", StoreConfig{Keys: 2, Window: -1}, valid},
		{"negative shards", StoreConfig{Keys: 2, Window: 1, Shards: -1}, valid},
		{"more shards than keys", StoreConfig{Keys: 2, Window: 1, Shards: 3}, valid},
		{"more shards than processes", StoreConfig{Keys: 8, Window: 1, Shards: 4}, valid},
		{"script outside S", StoreConfig{Keys: 2, Window: 1}, [][]KeyedOp{nil, nil, {{Key: 0, Kind: ReadOp}}}},
		{"key out of range", StoreConfig{Keys: 2, Window: 1}, [][]KeyedOp{{{Key: 2, Kind: ReadOp}}}},
		{"negative key", StoreConfig{Keys: 2, Window: 1}, [][]KeyedOp{{{Key: -1, Kind: ReadOp}}}},
		{"bad op kind", StoreConfig{Keys: 2, Window: 1}, [][]KeyedOp{{{Key: 0}}}},
	}
	for _, tc := range cases {
		if _, err := StoreProgram(n, s, tc.cfg, tc.scripts); err == nil {
			t.Fatalf("%s: construction must fail", tc.name)
		}
	}
}

func TestStoreConfigValidate(t *testing.T) {
	for name, cfg := range map[string]StoreConfig{
		"plain":               {Keys: 4, Shards: 2, Window: 3},
		"piggyback":           {Keys: 4, Window: 2, Piggyback: true},
		"adaptive defaults":   {Keys: 4, Window: 2, AdaptiveWindow: true},
		"adaptive configured": {Keys: 4, Window: 2, AdaptiveWindow: true, MaxWindow: 8, StallSteps: 10},
		"adaptive max=window": {Keys: 4, Window: 2, AdaptiveWindow: true, MaxWindow: 2},
		"fastread":            {Keys: 4, Shards: 2, Window: 3, FastReads: true},
		// Fast reads compose with every other feature (the elision rule only
		// fires on provably-confirmed quorums, so nothing is silently
		// defeated) — no combination is rejected.
		"fastread full stack": {
			Keys: 4, Shards: 2, Window: 3, Piggyback: true, FastReads: true,
			AdaptiveWindow: true, MaxWindow: 8, StallSteps: 10,
			OpenLoop: true, ArrivalGap: 3, ArrivalJitter: true,
			Retransmit: true, RTO: 16,
		},
	} {
		if err := cfg.Validate(5); err != nil {
			t.Fatalf("%s: valid config rejected: %v", name, err)
		}
	}
	for name, cfg := range map[string]StoreConfig{
		"zero keys":             {Keys: 0, Window: 1},
		"negative keys":         {Keys: -3, Window: 1},
		"zero window":           {Keys: 2},
		"negative window":       {Keys: 2, Window: -1},
		"negative shards":       {Keys: 2, Window: 1, Shards: -2},
		"shards > keys":         {Keys: 2, Window: 1, Shards: 3},
		"shards > n":            {Keys: 16, Window: 1, Shards: 6},
		"negative maxwindow":    {Keys: 2, Window: 1, AdaptiveWindow: true, MaxWindow: -4},
		"maxwindow < window":    {Keys: 2, Window: 4, AdaptiveWindow: true, MaxWindow: 2},
		"negative stall":        {Keys: 2, Window: 1, AdaptiveWindow: true, StallSteps: -1},
		"maxwindow no adaptive": {Keys: 2, Window: 1, MaxWindow: 8},
		"stall no adaptive":     {Keys: 2, Window: 1, StallSteps: 8},
	} {
		if err := cfg.Validate(5); err == nil {
			t.Fatalf("%s: StoreConfig.Validate must reject %+v", name, cfg)
		}
	}
}

func TestStoreShardedLinearizableAndSparse(t *testing.T) {
	const n = 6
	f := dist.NewFailurePattern(n)
	s := dist.NewProcSet(1, 2, 3)
	for _, shards := range []int{2, 3} {
		scripts, err := GenerateStoreWorkload(StoreWorkloadConfig{
			N: n, S: s, Keys: 12, Shards: shards, OpsPerClient: 10, WriteRatio: -1, Skew: 1.5, Seed: 21,
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg := StoreConfig{Keys: 12, Shards: shards, Window: 3}
		m, err := cfg.ShardMap(n)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(0); seed < 6; seed++ {
			res := runStore(t, f, s, cfg, scripts, 10, seed)
			if err := VerifyStoreRunReach(res, f.Correct(), nil); err != nil {
				t.Fatalf("shards=%d seed %d: %v", shards, seed, err)
			}
			// Replica state is sparse: every node only allocates the keys of
			// the shards it belongs to, keys/shards of the key space under
			// the canonical disjoint partition.
			const perKey = 24 // Timestamp (16) + Value (8)
			for pi, a := range res.Automata {
				node := a.(*StoreNode)
				want := 0
				for sh := 0; sh < m.Shards(); sh++ {
					if m.Owns(dist.ProcID(pi+1), sh) {
						want += m.KeysIn(sh) * perKey
					}
				}
				if got := node.ReplicaStateBytes(); got != want || got >= 12*perKey {
					t.Fatalf("shards=%d: p%d holds %d replica bytes, want %d (< %d)",
						shards, pi+1, got, want, 12*perKey)
				}
			}
		}
	}
}

func TestStoreShardCrashOnlyDegradesItsOwnShard(t *testing.T) {
	const n, shards, keys = 6, 3, 9
	s := dist.NewProcSet(1, 2, 3)
	scripts, err := GenerateStoreWorkload(StoreWorkloadConfig{
		N: n, S: s, Keys: keys, Shards: shards, OpsPerClient: 9, WriteRatio: -1, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := StoreConfig{Keys: keys, Shards: shards, Window: 2}
	m, err := cfg.ShardMap(n)
	if err != nil {
		t.Fatal(err)
	}
	// Shard 1's whole group ({p2, p5} under the canonical partition) is
	// crashed; shard 1 ops can never reach a quorum, shards 0 and 2 must be
	// untouched.
	const dead = 1
	if got := m.Group(dead); got != dist.NewProcSet(2, 5) {
		t.Fatalf("canonical group of shard 1 is %v, want {p2,p5}", got)
	}
	for seed := int64(0); seed < 6; seed++ {
		f := dist.NewFailurePattern(n)
		crashAt := dist.Time(0)
		if seed%2 == 1 {
			crashAt = dist.Time(20 + seed) // mid-run: some shard-1 ops may finish first
		}
		for _, p := range m.Group(dead).Members() {
			f.CrashAt(p, crashAt)
		}
		avail := m.Available(f.Correct())
		if avail != NewShardSet(0, 2) {
			t.Fatalf("availability %v, want {s0,s2}", avail)
		}
		res := runStore(t, f, s, cfg, scripts, 150, seed)
		if err := VerifyStoreRunReach(res, f.Correct(), nil); err != nil {
			t.Fatalf("seed %d (crash@%d): %v", seed, int64(crashAt), err)
		}
		byKey := KeyedOps(res.Ops)
		for key, ops := range byKey {
			if m.Shard(key) == dead {
				continue
			}
			// Every op a correct client issued on a live shard completed.
			for _, o := range ops {
				if f.Correct().Contains(o.Proc) && !o.Complete {
					t.Fatalf("seed %d: incomplete op %v on live shard %d", seed, o, m.Shard(key))
				}
			}
		}
		if crashAt == 0 {
			// With the group dead from the start no shard-1 op can ever
			// complete, at any client.
			stuck := 0
			for key, ops := range byKey {
				if m.Shard(key) != dead {
					continue
				}
				for _, o := range ops {
					if o.Complete {
						t.Fatalf("seed %d: op %v completed on key %d of the dead shard", seed, o, key)
					}
					stuck++
				}
			}
			if stuck == 0 {
				t.Fatalf("seed %d: workload never touched the dead shard — the scenario tests nothing", seed)
			}
			// The degradation is real: correct clients finished the
			// available shards (VerifyStoreRun above) but not their whole
			// script.
			fullyDone := 0
			for _, p := range s.Intersect(f.Correct()).Members() {
				if res.Automata[p-1].(*StoreNode).Done() {
					fullyDone++
				}
			}
			if fullyDone == len(s.Intersect(f.Correct()).Members()) {
				t.Fatalf("seed %d: every client finished despite a dead shard", seed)
			}
		}
	}
}

func TestStoreSweepLinearizableAndWorkerIndependent(t *testing.T) {
	const n = 5
	f := dist.NewFailurePattern(n)
	f.CrashAt(5, 60)
	s := dist.NewProcSet(1, 2, 3)
	scripts, err := GenerateStoreWorkload(StoreWorkloadConfig{
		N: n, S: s, Keys: 8, OpsPerClient: 8, WriteRatio: -1, Skew: 1.5, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := StoreSweepConfig{
		Pattern: f, S: s,
		Store:   StoreConfig{Keys: 8, Window: 3},
		Scripts: scripts,
		Stab:    120,
		Seeds:   10,
	}
	sweepWorkerIndependent(t, cfg, 2, 4)
	// A sweep with every client crashed would verify nothing and must be
	// rejected instead of vacuously succeeding.
	dead := dist.NewFailurePattern(n)
	for _, p := range s.Members() {
		dead.CrashAt(p, 0)
	}
	deadCfg := cfg
	deadCfg.Pattern = dead
	if _, err := StoreSweep(deadCfg); err == nil {
		t.Fatal("sweep with no correct client must be a setup error")
	}
}

func TestStoreShardedSweepWorkerIndependentUnderShardCrash(t *testing.T) {
	const n, shards = 6, 3
	s := dist.NewProcSet(1, 2, 3)
	scripts, err := GenerateStoreWorkload(StoreWorkloadConfig{
		N: n, S: s, Keys: 9, Shards: shards, OpsPerClient: 8, WriteRatio: -1, Skew: 1.4, Seed: 23,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Shard 1's whole group ({p2, p5}) crashes mid-run: the sweep verdict
	// demands completion on shards 0 and 2 only, plus per-key
	// linearizability across the board (stuck shard-1 ops stay pending).
	f := dist.NewFailurePattern(n)
	f.CrashAt(2, 25)
	f.CrashAt(5, 35)
	cfg := StoreSweepConfig{
		Pattern: f, S: s,
		Store:   StoreConfig{Keys: 9, Shards: shards, Window: 2},
		Scripts: scripts,
		Stab:    120,
		Seeds:   8,
	}
	sweepWorkerIndependent(t, cfg, 2, 4)
}
