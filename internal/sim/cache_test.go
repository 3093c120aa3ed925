package sim_test

import (
	"testing"

	"repro/internal/dist"
	"repro/internal/register"
	"repro/internal/sim"
)

// TestRunnerCachesMatchRecomputation runs sampled n=128 store sweeps under
// loss, duplication, delay, a partition that opens and heals, and a replica
// and a client that crash and recover, several seeds on one runner. After
// every tick it checks the runner's cached alive set against
// Pattern.AliveAt and every in-date cached deliverable count against a scan
// of its inbox.
func TestRunnerCachesMatchRecomputation(t *testing.T) {
	if testing.Short() {
		t.Skip("n=128 runs are a long test")
	}
	const n, shards, keys = 128, 16, 64
	s := dist.RangeSet(1, 16)
	scripts, err := register.GenerateStoreWorkload(register.StoreWorkloadConfig{
		N: n, S: s, Keys: keys, Shards: shards, OpsPerClient: 4,
		WriteRatio: -1, Skew: 1.2, Seed: 808,
	})
	if err != nil {
		t.Fatal(err)
	}
	f := dist.NewFailurePattern(n)
	f.CrashAt(5, 50) // a client
	f.RecoverAt(5, 200)
	f.CrashAt(40, 70) // a replica
	f.RecoverAt(40, 260)
	cfg := register.StoreSweepConfig{
		Pattern: f, S: s,
		Store: register.StoreConfig{
			Keys: keys, Shards: shards, Window: 2,
			AdaptiveWindow: true, MaxWindow: 6, StallSteps: 8,
			Retransmit: true, RTO: 24, MaxRTO: 96, FastReads: true,
		},
		Scripts: scripts,
		Faults: &sim.FaultPlan{
			Seed: 7, Loss: 0.03, Dup: 0.03, MaxDelay: 3,
			Partitions: []dist.Partition{{
				A:    dist.NewProcSet(1, 17, 33, 49, 65, 81, 97, 113),
				B:    dist.NewProcSet(2, 18, 34, 50, 66, 82, 98, 114),
				From: 60, Until: 300,
			}},
		},
	}
	simCfg, err := cfg.SimConfig()
	if err != nil {
		t.Fatal(err)
	}
	stop := simCfg.StopWhen
	var ticks, compared int
	simCfg.StopWhen = func(sn *sim.Snapshot) bool {
		c, err := sn.CheckCaches()
		if err != nil {
			t.Fatal(err)
		}
		ticks++
		compared += c
		return stop(sn)
	}
	r, err := sim.NewRunner(simCfg)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 3; seed++ {
		res, err := r.Reset(seed).Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Reason != sim.ReasonStopCond || res.Ticks < 300 {
			t.Fatalf("seed %d ended %s at tick %d, before the partition healed", seed, res.Reason, res.Ticks)
		}
	}
	if compared < ticks {
		t.Fatalf("%d in-date cached counts compared over %d ticks: the counts were hardly ever cached", compared, ticks)
	}
}
