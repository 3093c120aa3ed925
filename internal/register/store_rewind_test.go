package register

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/dist"
	"repro/internal/sim"
)

// TestRewoundRunnerMatchesFresh runs seeds A, B, A on one runner, whose
// StoreNodes are rewound in place between runs, and requires the second A
// to be the run a fresh runner makes of A: every Result scalar, the op log,
// the decisions, and every node's counters, latency histograms and state.
// The run has loss, duplication and delay, a healing one-way partition,
// fast reads, piggybacking and adaptive windows, a replica that crashes and
// recovers with its state wiped, and a client that crashes and recovers
// with its script gone.
func TestRewoundRunnerMatchesFresh(t *testing.T) {
	f, s, cfg, scripts, fp := recoveryScenario(t)
	cfg.FastReads, cfg.AdaptiveWindow, cfg.StallSteps = true, true, 8
	f.CrashAt(3, 200)
	f.RecoverAt(3, 230)
	sc := StoreSweepConfig{Pattern: f, S: s, Store: cfg, Scripts: scripts, Stab: 10, Faults: fp}
	runner := func() *sim.Runner {
		simCfg, err := sc.SimConfig()
		if err != nil {
			t.Fatal(err)
		}
		r, err := sim.NewRunner(simCfg)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	const a, b = 3, 4
	reused := runner()
	for _, seed := range []int64{a, b} {
		if _, err := reused.Reset(seed).Run(); err != nil {
			t.Fatal(err)
		}
	}
	got, err := reused.Reset(a).Run()
	if err != nil {
		t.Fatal(err)
	}
	want, err := runner().Reset(a).Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := sameStoreRun(got, want); err != nil {
		t.Fatal(err)
	}
	if got.MessagesDropped == 0 || got.MessagesDuplicated == 0 {
		t.Fatal("the faults never fired")
	}
	if err := VerifyStoreRunReach(got, f.Correct(), nil); err != nil {
		t.Fatal(err)
	}
	var fast int64
	for i := range got.Automata {
		g, w := got.Automata[i].(*StoreNode), want.Automata[i].(*StoreNode)
		if err := sameNode(g, w); err != nil {
			t.Fatalf("p%d: %v", i+1, err)
		}
		fast += g.FastReads()
	}
	if fast == 0 {
		t.Fatal("no read completed fast: the fast-read path went unexercised")
	}
	if got.Automata[2].(*StoreNode).ScriptedOps() != 0 || got.Automata[4].(*StoreNode).ReplicaStateBytes() == 0 {
		t.Fatal("the recoveries did not act: p3 kept its script or p5 never repopulated")
	}
}

// sameNode compares a rewound node with a fresh one: the counters and
// histograms the sweep reads, then every field.
func sameNode(a, b *StoreNode) error {
	type counters struct {
		Completed, Scripted              int
		Retransmits, FastReads, Fallback int64
		ReplicaBytes                     int
		Lat, Clean, Faulted              any
	}
	ca := counters{a.CompletedOps(), a.ScriptedOps(), a.Retransmits(), a.FastReads(), a.ReadFallbacks(), a.ReplicaStateBytes(), *a.LatencyHist(), *a.CleanLatencyHist(), *a.FaultedLatencyHist()}
	cb := counters{b.CompletedOps(), b.ScriptedOps(), b.Retransmits(), b.FastReads(), b.ReadFallbacks(), b.ReplicaStateBytes(), *b.LatencyHist(), *b.CleanLatencyHist(), *b.FaultedLatencyHist()}
	if !reflect.DeepEqual(ca, cb) {
		return fmt.Errorf("counters differ:\n rewound %+v\n   fresh %+v", ca, cb)
	}
	if !reflect.DeepEqual(*a, *b) {
		return fmt.Errorf("state differs:\n rewound %+v\n   fresh %+v", *a, *b)
	}
	return nil
}

// TestReusedStoreRunAllocs pins what one more run costs a reused store
// runner, on the configuration of the store-steady benchmark workload:
// Reset, Run and the sweep's check together. With the nodes rewound in
// place and the op log grouped in pooled scratch, a run allocates its Result
// and little else (4 allocations when measured); rebuilding every node on
// each Reset and grouping the log through maps cost 364.
func TestReusedStoreRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled check scratch at random")
	}
	const n = 5
	f, s := dist.NewFailurePattern(n), dist.RangeSet(1, 3)
	cfg := StoreConfig{
		Keys: 48, Shards: 4, Window: 8, Piggyback: true,
		OpenLoop: true, ArrivalGap: 4, ArrivalJitter: true,
	}
	scripts, err := GenerateStoreWorkload(StoreWorkloadConfig{
		N: n, S: s, Keys: cfg.Keys, Shards: cfg.Shards, OpsPerClient: 64, WriteRatio: 0.5, Skew: 1.2, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	simCfg, err := StoreSweepConfig{Pattern: f, S: s, Store: cfg, Scripts: scripts}.SimConfig()
	if err != nil {
		t.Fatal(err)
	}
	r, err := sim.NewRunner(simCfg)
	if err != nil {
		t.Fatal(err)
	}
	seed := int64(0)
	run := func() {
		res, err := r.Reset(seed).Run()
		if err == nil {
			err = VerifyStoreRunReach(res, f.Correct(), nil)
		}
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		seed++
	}
	for range 8 { // warm the pools and buffers
		run()
	}
	allocs := testing.AllocsPerRun(50, run)
	if allocs > 8 {
		t.Fatalf("a reused store run allocates %.1f times, want ≤ 8", allocs)
	}
}
