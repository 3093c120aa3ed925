package consensus

import (
	"testing"

	"repro/internal/agreement"
	"repro/internal/dist"
	"repro/internal/sim"
)

// runConsensus runs the one consensus run, SimConfig, on a random schedule
// of seed.
func runConsensus(t *testing.T, f *dist.FailurePattern, stab dist.Time, seed int64) agreement.Report {
	t.Helper()
	props := agreement.DistinctProposals(f.N())
	res := runSeed(t, SweepConfig{Pattern: f, Proposals: props, Stab: stab}, seed)
	return agreement.Check(f, 1, props, res)
}

// runSeed runs sc.SimConfig() once on a random schedule of seed.
func runSeed(t *testing.T, sc SweepConfig, seed int64) *sim.Result {
	t.Helper()
	cfg, err := sc.SimConfig()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Scheduler = sim.NewRandomScheduler(seed)
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatalf("sim.Run: %v", err)
	}
	return res
}

func TestConsensusAllCorrect(t *testing.T) {
	for n := 3; n <= 8; n++ {
		for seed := int64(0); seed < 5; seed++ {
			f := dist.NewFailurePattern(n)
			if rep := runConsensus(t, f, 25, seed); !rep.OK() {
				t.Fatalf("n=%d seed=%d: %s", n, seed, rep)
			}
		}
	}
}

func TestConsensusWithCrashes(t *testing.T) {
	const n = 5
	patterns := []*dist.FailurePattern{
		dist.CrashPattern(n, 5),
		dist.CrashPattern(n, 1), // p1 (the eventual canonical leader) dead
		dist.CrashPattern(n, 1, 2, 3, 4),
	}
	for _, f := range patterns {
		for seed := int64(0); seed < 5; seed++ {
			if rep := runConsensus(t, f, 40, seed); !rep.OK() {
				t.Fatalf("%v seed=%d: %s", f, seed, rep)
			}
		}
	}
}

func TestConsensusLateCrashes(t *testing.T) {
	const n = 6
	for seed := int64(0); seed < 10; seed++ {
		f := dist.NewFailurePattern(n)
		f.CrashAt(dist.ProcID(1+seed%6), dist.Time(10+3*seed))
		f.CrashAt(dist.ProcID(1+(seed+2)%6), dist.Time(30+seed))
		if !f.InEnvironment() {
			continue
		}
		if rep := runConsensus(t, f, 120, seed); !rep.OK() {
			t.Fatalf("%v seed=%d: %s", f, seed, rep)
		}
	}
}

func TestConsensusAgreementSingleValue(t *testing.T) {
	// Consensus = 1-set agreement: exactly one distinct decision.
	f := dist.NewFailurePattern(5)
	for seed := int64(0); seed < 20; seed++ {
		rep := runConsensus(t, f, 20, seed)
		if !rep.OK() {
			t.Fatalf("seed=%d: %s", seed, rep)
		}
		if rep.Distinct != 1 {
			t.Fatalf("seed=%d: %d distinct values", seed, rep.Distinct)
		}
	}
}

func TestConsensusSolvesKSetForAllK(t *testing.T) {
	// The trivial reduction: deciding one value satisfies k-set agreement
	// for every k ≥ 1 — the strong-information anchor of the spectrum.
	f := dist.CrashPattern(6, 6)
	props := agreement.DistinctProposals(6)
	res := runSeed(t, SweepConfig{Pattern: f, Proposals: props, Stab: 30}, 3)
	for k := 1; k <= 5; k++ {
		if rep := agreement.Check(f, k, props, res); !rep.OK() {
			t.Fatalf("k=%d: %s", k, rep)
		}
	}
}

func TestConsensusLeaderFlapping(t *testing.T) {
	// A long pre-stabilization window makes Ω rotate through the alive
	// processes: many proposers race with interleaved ballots. Safety
	// (single decided value) must hold throughout; termination follows once
	// Ω settles.
	const n = 5
	for seed := int64(0); seed < 10; seed++ {
		f := dist.NewFailurePattern(n)
		f.CrashAt(2, 90)
		if rep := runConsensus(t, f, 400, seed); !rep.OK() {
			t.Fatalf("seed=%d: %s", seed, rep)
		}
	}
}

func TestConsensusDecidedValueIsAProposal(t *testing.T) {
	// Validity under ballot races: the decided value must be one of the
	// proposals even when several proposers adopted each other's estimates.
	const n = 4
	props := agreement.DistinctProposals(n)
	for seed := int64(0); seed < 20; seed++ {
		f := dist.NewFailurePattern(n)
		res := runSeed(t, SweepConfig{Pattern: f, Proposals: props, Stab: 150, MaxSteps: 300_000}, seed)
		rep := agreement.Check(f, 1, props, res)
		if !rep.OK() {
			t.Fatalf("seed=%d: %s", seed, rep)
		}
	}
}
