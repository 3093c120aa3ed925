package register

import (
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/sim"
)

// TestStoreOpenLoopConfigGates pins the construction-time rejections of the
// open-loop arrival knobs.
func TestStoreOpenLoopConfigGates(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  StoreConfig
		want string
	}{
		{"negative arrival gap", StoreConfig{Keys: 2, Window: 1, OpenLoop: true, ArrivalGap: -3}, "negative"},
		{"arrival gap without open loop", StoreConfig{Keys: 2, Window: 1, ArrivalGap: 4}, "OpenLoop"},
		{"arrival jitter without open loop", StoreConfig{Keys: 2, Window: 1, ArrivalJitter: true}, "OpenLoop"},
		{"arrival seed without open loop", StoreConfig{Keys: 2, Window: 1, ArrivalSeed: 7}, "OpenLoop"},
	} {
		if err := tc.cfg.Validate(4); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want error containing %q", tc.name, err, tc.want)
		}
	}
	// The valid combinations construct fine.
	for _, cfg := range []StoreConfig{
		{Keys: 2, Window: 1, OpenLoop: true},
		{Keys: 2, Window: 1, OpenLoop: true, ArrivalGap: 3, ArrivalJitter: true, ArrivalSeed: 9},
		{Keys: 2, Window: 2, Piggyback: true, OpenLoop: true, ArrivalGap: 2},
	} {
		if err := cfg.Validate(4); err != nil {
			t.Errorf("valid config rejected: %+v: %v", cfg, err)
		}
	}
}

// TestStoreOpenLoopArrivals pins the open-loop semantics: with a large
// inter-arrival gap the run is paced by the arrival schedule (many more
// steps than the closed-loop run of the same script), every op still
// completes and verifies, and each client records exactly one latency
// observation per completed op.
func TestStoreOpenLoopArrivals(t *testing.T) {
	const n, gap = 5, 20
	f := dist.NewFailurePattern(n)
	s := dist.NewProcSet(1, 2)
	scripts, err := GenerateStoreWorkload(StoreWorkloadConfig{
		N: n, S: s, Keys: 8, OpsPerClient: 8, WriteRatio: -1, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	closed := StoreConfig{Keys: 8, Window: 2}
	open := closed
	open.OpenLoop = true
	open.ArrivalGap = gap
	for seed := int64(0); seed < 4; seed++ {
		rc := runStore(t, f, s, closed, scripts, 10, seed)
		ro := runStore(t, f, s, open, scripts, 10, seed)
		for _, res := range []*sim.Result{rc, ro} {
			if err := VerifyStoreRunReach(res, f.Correct(), nil); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			var obs int64
			for _, p := range s.Members() {
				obs += res.Automata[p-1].(*StoreNode).LatencyHist().Count
			}
			if want := int64(TotalKeyedOps(scripts)); obs != want {
				t.Fatalf("seed %d: %d latency observations, want %d (one per op)", seed, obs, want)
			}
		}
		// Each client's last op arrives at step (ops-1)*gap, so the open-loop
		// run cannot finish before the arrival schedule drains.
		if ro.Steps < (8-1)*gap {
			t.Fatalf("seed %d: open-loop run finished in %d steps, before the last arrival at %d", seed, ro.Steps, (8-1)*gap)
		}
		if ro.Steps <= rc.Steps {
			t.Fatalf("seed %d: open-loop gap %d did not pace the run: %d steps open vs %d closed", seed, gap, ro.Steps, rc.Steps)
		}
	}
}

// TestStoreOpenLoopLatencyIncludesQueueing pins the latency origin: under
// overload (arrivals faster than a window-1 client can serve) latency is
// measured from arrival, so queueing delay accumulates and the mean is far
// above the lightly-loaded mean of the same script.
func TestStoreOpenLoopLatencyIncludesQueueing(t *testing.T) {
	const n = 5
	f := dist.NewFailurePattern(n)
	s := dist.NewProcSet(1, 2)
	scripts, err := GenerateStoreWorkload(StoreWorkloadConfig{
		N: n, S: s, Keys: 4, OpsPerClient: 12, WriteRatio: -1, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	mean := func(cfg StoreConfig, seed int64) float64 {
		res := runStore(t, f, s, cfg, scripts, 10, seed)
		if err := VerifyStoreRunReach(res, f.Correct(), nil); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		var h = res.Automata[0].(*StoreNode).LatencyHist()
		total := *h
		total.Merge(res.Automata[1].(*StoreNode).LatencyHist())
		return total.Mean()
	}
	light := StoreConfig{Keys: 4, Window: 1, OpenLoop: true, ArrivalGap: 25}
	overload := StoreConfig{Keys: 4, Window: 1, OpenLoop: true, ArrivalGap: 1}
	for seed := int64(0); seed < 3; seed++ {
		lm, om := mean(light, seed), mean(overload, seed)
		if om <= lm {
			t.Fatalf("seed %d: overload mean latency %.1f not above light-load mean %.1f — queueing delay not measured", seed, om, lm)
		}
	}
}

// TestStoreOpenLoopSweepWorkerIndependent is the full-composition acceptance
// scenario: open-loop arrivals + piggybacking + adaptive windows +
// retransmission + loss/duplication/partition faults on the sweep engine —
// all aggregates, the per-op latency histogram included, bit-identical at
// workers 1, 2, 8.
func TestStoreOpenLoopSweepWorkerIndependent(t *testing.T) {
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
			Keys: 9, Shards: shards, Window: 2, Piggyback: true,
			AdaptiveWindow: true, MaxWindow: 6, StallSteps: 8,
			Retransmit: true, RTO: 16,
			OpenLoop: true, ArrivalGap: 3, ArrivalJitter: true, ArrivalSeed: 7,
		},
		Scripts: scripts,
		Stab:    20,
		Faults: &sim.FaultPlan{
			Seed: 99, Loss: 0.05, Dup: 0.05, MaxDelay: 3,
			Partitions: []dist.Partition{{A: dist.NewProcSet(1, 4), B: dist.NewProcSet(2, 5), From: 40, Until: 160}},
		},
		Seeds: 8,
	}
	base := sweepWorkerIndependent(t, cfg, 2, 8)
	if base.Dropped.Sum == 0 || base.Duplicated.Sum == 0 {
		t.Fatalf("fault plan injected nothing: drops %s, dups %s", base.Dropped.String(), base.Duplicated.String())
	}
	if want := int64(TotalKeyedOps(scripts)) * base.Runs; base.Lat.Count != want {
		t.Fatalf("latency histogram has %d observations, want %d (one per op per run)", base.Lat.Count, want)
	}
}
