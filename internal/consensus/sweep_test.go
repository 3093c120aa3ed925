package consensus

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/agreement"
	"repro/internal/dist"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// faultedSweepConfig is the shared consensus-under-faults scenario: n = 5,
// one early crash, 5% loss + 5% duplication + bounded delay, and a one-way
// partition (p2 can hear p1's side but not answer it) healing mid-run.
func faultedSweepConfig(seeds int64, workers int) SweepConfig {
	const n = 5
	f := dist.NewFailurePattern(n)
	f.CrashAt(4, 60)
	return SweepConfig{
		Pattern:   f,
		Proposals: []agreement.Value{10, 20, 30, 40, 50},
		Stab:      25,
		Faults: &sim.FaultPlan{
			Seed: 77, Loss: 0.05, Dup: 0.05, MaxDelay: 3,
			Partitions: []dist.Partition{{
				A: dist.NewProcSet(2), B: dist.NewProcSet(1, 3), From: 30, Until: 120, OneWay: true,
			}},
		},
		Seeds:   seeds,
		Workers: workers,
	}
}

// TestConsensusSweepUnderFaultsWorkerIndependent runs Ω+Σ consensus under
// loss + duplication + delay + a healing one-way partition + a crash, checks
// every run for validity and uniform agreement, and asserts the whole
// aggregate — decided rate, failure accounting, steps/msgs/drops/dups
// histograms — is bit-identical at workers 1, 2 and 8. Quorum retries (the
// ballot stall-retry loop plus the decide re-broadcast) must mask the loss:
// every seed decides.
func TestConsensusSweepUnderFaultsWorkerIndependent(t *testing.T) {
	const seeds = 48
	var base *sweep.Result
	for _, workers := range []int{1, 2, 8} {
		res, err := Sweep(faultedSweepConfig(seeds, workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Failures > 0 {
			t.Fatalf("workers=%d: %d failing seeds, first %d: %v",
				workers, res.Failures, res.FirstFailSeed, res.FirstFailErr)
		}
		if res.Decided != seeds {
			t.Fatalf("workers=%d: only %d/%d runs decided under faults", workers, res.Decided, seeds)
		}
		if res.Dropped.Sum == 0 || res.Duplicated.Sum == 0 {
			t.Fatalf("workers=%d: fault plan never fired (drops %d, dups %d)",
				workers, res.Dropped.Sum, res.Duplicated.Sum)
		}
		if base == nil {
			base = res
			continue
		}
		if res.Runs != base.Runs || res.Decided != base.Decided || res.Failures != base.Failures ||
			res.FirstFailSeed != base.FirstFailSeed ||
			res.Steps != base.Steps || res.Msgs != base.Msgs ||
			res.Dropped != base.Dropped || res.Duplicated != base.Duplicated {
			t.Fatalf("workers=%d: aggregate differs from workers=1:\n%v\nvs\n%v", workers, res, base)
		}
	}
}

// TestConsensusPooledSweepsConcurrent runs faulted sweeps of two sizes at
// once, two workers each, all on the one SimConfig per size, so runners
// lease frames from pools that ride in inbox sets concurrent sweeps take
// and give back; under -race it fails on any pool two runners share. Every
// sweep must match its size's lone run.
func TestConsensusPooledSweepsConcurrent(t *testing.T) {
	cfgs := []SweepConfig{faultedSweepConfig(8, 2), faultedSweepConfig(8, 2)}
	cfgs[1].Pattern = dist.NewFailurePattern(7)
	cfgs[1].Proposals = []agreement.Value{1, 2, 3, 4, 5, 6, 7}
	want := make([]string, len(cfgs))
	for i, c := range cfgs {
		res, err := Sweep(c)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failures != 0 || res.Dropped.Sum == 0 {
			t.Fatalf("size %d, lone sweep: %s", c.Pattern.N(), res)
		}
		want[i] = res.String()
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			i := g % len(cfgs)
			for range 3 {
				res, err := Sweep(cfgs[i])
				if err != nil {
					t.Error(err)
					return
				}
				if got := res.String(); got != want[i] {
					t.Errorf("size %d, concurrent sweep:\n  %s\nwant:\n  %s", cfgs[i].Pattern.N(), got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestConsensusSweepCrashRecover is the volatile-state-loss scenario: p3
// crashes at t=40 — possibly after promising, accepting, even deciding — and
// recovers at t=200 with everything forgotten. Agreement and validity must
// hold across every seed, and the recovered process must relearn the decided
// value from the periodic decide re-broadcast (the Sweep's Check enforces
// that; termination of correct processes is agreement.Check's). Safety
// survives because Σ's trusted sets converge to Correct(F), which excludes
// the ever-crashed p3: every quorum contains all correct processes, so two
// quorums always intersect in a process whose memory was never wiped.
func TestConsensusSweepCrashRecover(t *testing.T) {
	const n, seeds = 5, 48
	f := dist.NewFailurePattern(n)
	f.CrashAt(3, 40)
	f.RecoverAt(3, 200)
	res, err := Sweep(SweepConfig{
		Pattern:   f,
		Proposals: []agreement.Value{10, 20, 30, 40, 50},
		Stab:      25,
		Faults: &sim.FaultPlan{
			Seed: 91, Loss: 0.05, Dup: 0.05, MaxDelay: 2,
		},
		Seeds: seeds,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures > 0 {
		t.Fatalf("%d failing seeds, first %d: %v", res.Failures, res.FirstFailSeed, res.FirstFailErr)
	}
	if res.Decided != seeds {
		t.Fatalf("only %d/%d runs decided", res.Decided, seeds)
	}
}

// TestConsensusSweepRejectsBadSetups covers the construction-time guards.
func TestConsensusSweepRejectsBadSetups(t *testing.T) {
	good := faultedSweepConfig(1, 1)
	cases := []struct {
		name string
		mut  func(c *SweepConfig)
	}{
		{"nil pattern", func(c *SweepConfig) { c.Pattern = nil }},
		{"all crashed", func(c *SweepConfig) {
			f := dist.NewFailurePattern(2)
			f.CrashAt(1, 0)
			f.CrashAt(2, 0)
			c.Pattern = f
		}},
		{"proposal count", func(c *SweepConfig) { c.Proposals = c.Proposals[:2] }},
		{"invalid faults", func(c *SweepConfig) {
			c.Faults = &sim.FaultPlan{Loss: 1.5}
		}},
		{"unhealed partition", func(c *SweepConfig) {
			c.Faults = &sim.FaultPlan{Partitions: []dist.Partition{{
				A: dist.NewProcSet(1), B: dist.NewProcSet(2), From: 0, Until: dist.NoCrash,
			}}}
		}},
	}
	for _, tc := range cases {
		cfg := good
		tc.mut(&cfg)
		if _, err := Sweep(cfg); err == nil {
			t.Errorf("%s: Sweep accepted an invalid config", tc.name)
		}
	}

}

// TestSimConfigReproducesSweepRuns replays single seeds of the faulted
// sweep on one runner built from SimConfig: Runner.Reset(s) must give the
// Steps and MessagesSent that Sweep aggregates for seed s.
func TestSimConfigReproducesSweepRuns(t *testing.T) {
	sc := faultedSweepConfig(1, 1)
	cfg, err := sc.SimConfig()
	if err != nil {
		t.Fatal(err)
	}
	r, err := sim.NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 8; seed++ {
		sc.SeedStart = seed
		agg, err := Sweep(sc)
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Reset(seed).Run()
		if err != nil {
			t.Fatal(err)
		}
		if agg.Failures > 0 || res.Steps != agg.Steps.Sum || res.MessagesSent != agg.Msgs.Sum {
			t.Fatalf("seed %d: runner steps=%d msgs=%d, sweep steps=%d msgs=%d (failures %d)",
				seed, res.Steps, res.MessagesSent, agg.Steps.Sum, agg.Msgs.Sum, agg.Failures)
		}
	}
}

// TestRewoundRunnerMatchesFresh runs seeds A, B, A on one runner, whose
// Nodes are rewound in place between runs, and requires the second A to be
// the run a fresh runner makes of A: every Result scalar, the op log, the
// decisions and their times, and every node's state. p3 crashes and recovers, so one
// rewind also happens mid-run.
func TestRewoundRunnerMatchesFresh(t *testing.T) {
	sc := faultedSweepConfig(1, 1)
	sc.Pattern = dist.NewFailurePattern(5)
	sc.Pattern.CrashAt(3, 40)
	sc.Pattern.RecoverAt(3, 200)
	cfg, err := sc.SimConfig()
	if err != nil {
		t.Fatal(err)
	}
	reused, err := sim.NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const a, b = 3, 4
	for _, seed := range []int64{a, b} {
		if _, err := reused.Reset(seed).Run(); err != nil {
			t.Fatal(err)
		}
	}
	got, err := reused.Reset(a).Run()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := sim.NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Reset(a).Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.check(a, got); err != nil {
		t.Fatal(err)
	}
	type scalars struct {
		Steps, Ticks                       int64
		Reason                             sim.StopReason
		Sent, Dropped, Duplicated, Delayed int64
		Decisions                          map[dist.ProcID]any
		DecideTime                         map[dist.ProcID]dist.Time
		Ops                                []sim.OpEvent
	}
	scalarsOf := func(r *sim.Result) scalars {
		return scalars{r.Steps, r.Ticks, r.Reason, r.MessagesSent, r.MessagesDropped, r.MessagesDuplicated, r.MessagesDelayed, r.Decisions, r.DecideTime, r.Ops}
	}
	if g, w := scalarsOf(got), scalarsOf(want); !reflect.DeepEqual(g, w) {
		t.Fatalf("rewound run differs from fresh:\n rewound %+v\n   fresh %+v", g, w)
	}
	if got.MessagesDropped == 0 || got.MessagesDuplicated == 0 {
		t.Fatal("the faults never fired")
	}
	if _, ok := got.Decisions[3]; !ok || got.DecideTime[3] < 200 {
		t.Fatal("recovered p3 did not decide after its recovery")
	}
	for i := range got.Automata {
		if g, w := got.Automata[i].(*Node), want.Automata[i].(*Node); *g != *w {
			t.Fatalf("p%d: rewound node %+v, fresh %+v", i+1, *g, *w)
		}
	}
}
