package register

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dist"
)

// DefaultWriteRatio is the write fraction used when a workload config leaves
// WriteRatio negative (unset).
const DefaultWriteRatio = 0.5

// MaxOpsPerKey bounds the operations any single key receives in a generated
// keyed workload. It shapes the workload, not the checker (which checks a
// key of any length): it spreads a skewed draw over the key space, and the
// benchmark's scripts are pinned to it.
const MaxOpsPerKey = 60

// StoreWorkloadConfig parameterizes the keyed script generator driving the
// register store.
type StoreWorkloadConfig struct {
	// N is the system size; S the store's member set (the clients).
	N int
	S dist.ProcSet
	// Keys is the store's key count; OpsPerClient the script length at each
	// member of S.
	Keys         int
	OpsPerClient int
	// Shards makes the generator shard-aware (0 or 1 = one global key
	// distribution): keys are striped across shards as in ShardMap (key k
	// on shard k mod Shards), each op draws its destination shard
	// uniformly — so every replica group sees traffic — and then applies
	// Skew within that shard's keys, giving each shard its own hot keys.
	Shards int
	// WriteRatio ∈ [0,1]: 0 requests a read-only workload; a negative value
	// selects DefaultWriteRatio.
	WriteRatio float64
	// Skew selects the key distribution: 0 draws keys uniformly; a value
	// > 1 draws keys from a Zipf distribution with parameter s = Skew (the
	// lowest key of each shard hottest). rand.Zipf is undefined for
	// s ≤ 1, so any other value is a construction-time error.
	Skew float64
	// Seed drives the generator.
	Seed int64
}

// GenerateStoreWorkload builds per-process keyed scripts (index ProcID-1):
// members of S receive a random read/write mix over the key space with
// globally unique write values, everyone else gets a nil script. With
// Shards > 1 each op picks a destination shard uniformly and then a key
// within the shard (skewed or uniform), so the scripts exercise every
// replica group. No key receives more than MaxOpsPerKey operations in
// total — a key drawn beyond that bound is deterministically redirected
// to the next key with spare room (possibly on another shard: the global
// bound guarantees a slot exists somewhere).
func GenerateStoreWorkload(cfg StoreWorkloadConfig) ([][]KeyedOp, error) {
	if cfg.Keys < 1 {
		return nil, fmt.Errorf("register: store workload needs Keys ≥ 1, got %d", cfg.Keys)
	}
	if cfg.OpsPerClient < 1 {
		return nil, fmt.Errorf("register: store workload needs OpsPerClient ≥ 1, got %d (an empty workload would vacuously pass every check)", cfg.OpsPerClient)
	}
	if cfg.OpsPerClient >= 1_000_000 {
		// The p*1e6+i write-value scheme guarantees global uniqueness only
		// below a million writes per client; beyond that, values would
		// collide and CheckKeyedLinearizable would refuse the history.
		return nil, fmt.Errorf("register: OpsPerClient %d exceeds the 1e6 unique-write-value budget", cfg.OpsPerClient)
	}
	// NaN slips past every range test below (a NaN ratio would build a
	// read-only workload, a NaN skew a uniform one) and +Inf hangs
	// rand.Zipf, so both knobs must be finite first.
	if math.IsNaN(cfg.WriteRatio) || math.IsInf(cfg.WriteRatio, 0) {
		return nil, fmt.Errorf("register: store workload WriteRatio must be finite, got %g", cfg.WriteRatio)
	}
	if math.IsNaN(cfg.Skew) || math.IsInf(cfg.Skew, 0) {
		return nil, fmt.Errorf("register: store workload Skew must be finite, got %g", cfg.Skew)
	}
	if cfg.WriteRatio > 1 {
		return nil, fmt.Errorf("register: WriteRatio %g outside [0,1]", cfg.WriteRatio)
	}
	if cfg.Skew != 0 && cfg.Skew <= 1 {
		// rand.NewZipf returns nil for s ≤ 1 and the first draw would
		// panic; reject at construction with the fix spelled out.
		return nil, fmt.Errorf("register: zipf skew must be > 1, got %g (use Skew 0 for a uniform key distribution)", cfg.Skew)
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("register: store workload shard count %d is negative", cfg.Shards)
	}
	if !cfg.S.SubsetOf(dist.FullSet(cfg.N)) {
		return nil, fmt.Errorf("register: store members %v outside the %d-process system", cfg.S, cfg.N)
	}
	total := cfg.OpsPerClient * cfg.S.Len()
	if total > cfg.Keys*MaxOpsPerKey {
		return nil, fmt.Errorf("register: %d scripted ops exceed the workload's per-key bound (%d keys × %d ops)",
			total, cfg.Keys, MaxOpsPerKey)
	}
	shards := cfg.Shards
	if shards < 1 {
		shards = 1
	}
	// The same canonical map the store routes by: the generator must agree
	// with the store on which keys share a shard, or "per-shard skew"
	// would silently cross replica groups.
	m, err := NewShardMap(cfg.N, cfg.Keys, shards)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	ratio := cfg.WriteRatio // 0 is a genuine read-only workload
	if ratio < 0 {
		ratio = DefaultWriteRatio
	}
	// One Zipf source per shard, sized to the shard's key count: skew is a
	// per-shard property under sharding (every shard has its own hot key).
	var zipfs []*rand.Zipf
	if cfg.Skew > 1 {
		zipfs = make([]*rand.Zipf, shards)
		for sh := 0; sh < shards; sh++ {
			if kc := m.KeysIn(sh); kc > 1 {
				zipfs[sh] = rand.NewZipf(rng, cfg.Skew, 1, uint64(kc-1))
			}
		}
	}
	perKey := make([]int, cfg.Keys)
	scripts := make([][]KeyedOp, cfg.N)
	for _, p := range cfg.S.Members() {
		sc := make([]KeyedOp, 0, cfg.OpsPerClient)
		writes := 0
		for i := 0; i < cfg.OpsPerClient; i++ {
			sh := 0
			if shards > 1 {
				sh = rng.Intn(shards)
			}
			local := 0
			if zipfs != nil && zipfs[sh] != nil {
				local = int(zipfs[sh].Uint64())
			} else if kc := m.KeysIn(sh); kc > 1 {
				local = rng.Intn(kc)
			}
			key := m.KeyAt(sh, local)
			for perKey[key] >= MaxOpsPerKey {
				key = (key + 1) % cfg.Keys
			}
			perKey[key]++
			op := KeyedOp{Key: key, Kind: ReadOp}
			if rng.Float64() < ratio {
				writes++
				op.Kind = WriteOp
				op.Arg = Value(int64(p)*1_000_000 + int64(writes)) // globally unique
			}
			sc = append(sc, op)
		}
		scripts[p-1] = sc
	}
	return scripts, nil
}

// TotalKeyedOps counts the scripted operations.
func TotalKeyedOps(scripts [][]KeyedOp) int {
	total := 0
	for _, sc := range scripts {
		total += len(sc)
	}
	return total
}
