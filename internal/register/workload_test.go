package register

import (
	"reflect"
	"testing"

	"repro/internal/dist"
)

func TestGenerateWorkloadWriteRatioZeroIsReadOnly(t *testing.T) {
	// Regression: WriteRatio 0 used to be clobbered to the 0.5 default,
	// making a read-only workload impossible to request. Checked on the
	// one-key store, the single S-register workload.
	scripts, err := GenerateStoreWorkload(StoreWorkloadConfig{
		N: 5, S: dist.NewProcSet(1, 2, 3), Keys: 1, OpsPerClient: 20, WriteRatio: 0, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := TotalKeyedOps(scripts); got != 60 {
		t.Fatalf("generated %d ops, want 60", got)
	}
	for pi, sc := range scripts {
		for _, op := range sc {
			if op.Kind != ReadOp {
				t.Fatalf("WriteRatio 0 generated %v at p%d", op, pi+1)
			}
		}
	}
}

func TestGenerateWorkloadNegativeRatioSelectsDefault(t *testing.T) {
	scripts, err := GenerateStoreWorkload(StoreWorkloadConfig{
		N: 4, S: dist.NewProcSet(1, 2), Keys: 1, OpsPerClient: 30, WriteRatio: -1, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	reads, writes := 0, 0
	for _, sc := range scripts {
		for _, op := range sc {
			if op.Kind == ReadOp {
				reads++
			} else {
				writes++
			}
		}
	}
	if reads == 0 || writes == 0 {
		t.Fatalf("default ratio must mix kinds, got %d reads / %d writes", reads, writes)
	}
}

func TestGenerateStoreWorkloadBoundsAndUniqueness(t *testing.T) {
	s := dist.NewProcSet(1, 2, 3)
	cfg := StoreWorkloadConfig{
		N: 5, S: s, Keys: 6, OpsPerClient: 40, WriteRatio: -1, Skew: 2.0, Seed: 13,
	}
	scripts, err := GenerateStoreWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := TotalKeyedOps(scripts); got != 120 {
		t.Fatalf("generated %d ops, want 120", got)
	}
	perKey := make(map[int]int)
	writeArgs := make(map[Value]bool)
	writes := 0
	for pi, sc := range scripts {
		if len(sc) > 0 && !s.Contains(dist.ProcID(pi+1)) {
			t.Fatalf("non-member p%d got a script", pi+1)
		}
		for _, op := range sc {
			if op.Key < 0 || op.Key >= cfg.Keys {
				t.Fatalf("key %d outside [0,%d)", op.Key, cfg.Keys)
			}
			perKey[op.Key]++
			if op.Kind == WriteOp {
				writes++
				if writeArgs[op.Arg] {
					t.Fatalf("duplicate write value %d", int64(op.Arg))
				}
				writeArgs[op.Arg] = true
			}
		}
	}
	for key, count := range perKey {
		if count > MaxOpsPerKey {
			t.Fatalf("key %d received %d ops, the per-key bound is %d", key, count, MaxOpsPerKey)
		}
	}
	if writes == 0 {
		t.Fatal("default ratio generated no writes")
	}
	// Zipf with s=2 concentrates on low keys: key 0 must be at least as hot
	// as the coldest key.
	min, max := perKey[0], perKey[0]
	for _, c := range perKey {
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if perKey[0] != max && max-min > 0 && perKey[0] == min {
		t.Fatalf("skewed workload left key 0 coldest: %v", perKey)
	}

	// Determinism: the same config generates the same scripts.
	again, err := GenerateStoreWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(scripts, again) {
		t.Fatal("generator is not deterministic for a fixed seed")
	}
}

func TestGenerateStoreWorkloadReadOnly(t *testing.T) {
	scripts, err := GenerateStoreWorkload(StoreWorkloadConfig{
		N: 4, S: dist.NewProcSet(1, 2), Keys: 4, OpsPerClient: 10, WriteRatio: 0, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range scripts {
		for _, op := range sc {
			if op.Kind != ReadOp {
				t.Fatalf("WriteRatio 0 generated %v", op)
			}
		}
	}
}

func TestGenerateStoreWorkloadRejectsOverBudget(t *testing.T) {
	// 2 clients × 70 ops on one key cannot stay within the per-key bound.
	if _, err := GenerateStoreWorkload(StoreWorkloadConfig{
		N: 3, S: dist.NewProcSet(1, 2), Keys: 1, OpsPerClient: 70, Seed: 1,
	}); err == nil {
		t.Fatal("over-budget workload must be rejected")
	}
	if _, err := GenerateStoreWorkload(StoreWorkloadConfig{
		N: 3, S: dist.NewProcSet(1, 2), Keys: 0, OpsPerClient: 1, Seed: 1,
	}); err == nil {
		t.Fatal("zero keys must be rejected")
	}
	if _, err := GenerateStoreWorkload(StoreWorkloadConfig{
		N: 3, S: dist.NewProcSet(1, 5), Keys: 2, OpsPerClient: 1, Seed: 1,
	}); err == nil {
		t.Fatal("members outside the system must be rejected")
	}
	// An empty workload would vacuously pass every check.
	if _, err := GenerateStoreWorkload(StoreWorkloadConfig{
		N: 3, S: dist.NewProcSet(1, 2), Keys: 2, OpsPerClient: 0, Seed: 1,
	}); err == nil {
		t.Fatal("zero ops per client must be rejected")
	}
	if _, err := GenerateStoreWorkload(StoreWorkloadConfig{
		N: 3, S: dist.NewProcSet(1, 2), Keys: 2, OpsPerClient: 4, WriteRatio: 1.5, Seed: 1,
	}); err == nil {
		t.Fatal("WriteRatio above 1 must be rejected")
	}
}

func TestGenerateStoreWorkloadRejectsSubUnitSkew(t *testing.T) {
	// rand.NewZipf is undefined for s ≤ 1 (it returns nil and the first
	// draw panics); the generator must reject such configs up front with 0
	// as the explicit "uniform" value.
	base := StoreWorkloadConfig{N: 4, S: dist.NewProcSet(1, 2), Keys: 4, OpsPerClient: 6, Seed: 1}
	for _, skew := range []float64{1.0, 0.5, 1e-9, -0.7, -2} {
		cfg := base
		cfg.Skew = skew
		if _, err := GenerateStoreWorkload(cfg); err == nil {
			t.Fatalf("skew %g must be rejected", skew)
		}
	}
	for _, skew := range []float64{0, 1.0000001, 2} {
		cfg := base
		cfg.Skew = skew
		if _, err := GenerateStoreWorkload(cfg); err != nil {
			t.Fatalf("skew %g must be accepted: %v", skew, err)
		}
	}
}

func TestGenerateStoreWorkloadShardAware(t *testing.T) {
	const keys, shards = 12, 3
	cfg := StoreWorkloadConfig{
		N: 5, S: dist.NewProcSet(1, 2, 3), Keys: keys, Shards: shards,
		OpsPerClient: 40, WriteRatio: -1, Skew: 1.6, Seed: 9,
	}
	scripts, err := GenerateStoreWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	perShard := make([]int, shards)
	hot := make([]map[int]int, shards)
	for i := range hot {
		hot[i] = make(map[int]int)
	}
	for _, sc := range scripts {
		for _, op := range sc {
			sh := op.Key % shards
			perShard[sh]++
			hot[sh][op.Key]++
		}
	}
	// Uniform shard choice: every replica group sees traffic.
	for sh, c := range perShard {
		if c == 0 {
			t.Fatalf("shard %d received no ops: %v", sh, perShard)
		}
	}
	// Per-shard skew: within at least one shard, the lowest key (the
	// shard's zipf head, key == shard index) is strictly hotter than that
	// shard's coldest key.
	skewed := false
	for sh := range hot {
		min, max := -1, 0
		for _, c := range hot[sh] {
			if min == -1 || c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
		if hot[sh][sh] == max && max > min {
			skewed = true
		}
	}
	if !skewed {
		t.Fatalf("no shard shows a zipf head: %v", hot)
	}
	// Shard-aware generation is deterministic too.
	again, err := GenerateStoreWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(scripts, again) {
		t.Fatal("sharded generator is not deterministic for a fixed seed")
	}
	// Shard-count validation.
	bad := cfg
	bad.Shards = keys + 1
	if _, err := GenerateStoreWorkload(bad); err == nil {
		t.Fatal("more shards than keys must be rejected")
	}
	bad = cfg
	bad.Shards = -1
	if _, err := GenerateStoreWorkload(bad); err == nil {
		t.Fatal("negative shard count must be rejected")
	}
}

func TestGenerateStoreWorkloadSaturatesKeysViaRedirect(t *testing.T) {
	// Exactly at budget: every key ends up with exactly MaxOpsPerKey ops,
	// reachable only through the deterministic redirect.
	scripts, err := GenerateStoreWorkload(StoreWorkloadConfig{
		N: 3, S: dist.NewProcSet(1, 2), Keys: 2, OpsPerClient: MaxOpsPerKey, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	perKey := make(map[int]int)
	for _, sc := range scripts {
		for _, op := range sc {
			perKey[op.Key]++
		}
	}
	if perKey[0] != MaxOpsPerKey || perKey[1] != MaxOpsPerKey {
		t.Fatalf("saturated workload distributed %v, want %d per key", perKey, MaxOpsPerKey)
	}
}
