package core

import (
	"testing"

	"repro/internal/agreement"
	"repro/internal/dist"
	"repro/internal/sim"
)

// runFig2 runs Figure 2 under the given pattern, oracle mode and seed and
// checks the (n−1)-set agreement properties.
func runFig2(t *testing.T, f *dist.FailurePattern, a dist.ProcSet, mode SigmaMode, stab dist.Time, seed int64) agreement.Report {
	t.Helper()
	n := f.N()
	props := agreement.DistinctProposals(n)
	oracle, err := NewSigmaOracle(f, a, stab, mode)
	if err != nil {
		t.Fatalf("NewSigmaOracle: %v", err)
	}
	res, err := sim.Run(sim.Config{
		Pattern:         f,
		History:         oracle,
		Program:         Fig2Program(props),
		Scheduler:       sim.NewRandomScheduler(seed),
		StopWhenDecided: true,
	})
	if err != nil {
		t.Fatalf("sim.Run: %v", err)
	}
	return agreement.Check(f, n-1, props, res)
}

func TestFig2AllCorrect(t *testing.T) {
	for n := 3; n <= 8; n++ {
		f := dist.NewFailurePattern(n)
		a := dist.NewProcSet(1, 2)
		for seed := int64(0); seed < 10; seed++ {
			rep := runFig2(t, f, a, SigmaCanonical, 20, seed)
			if !rep.OK() {
				t.Fatalf("n=%d seed=%d: %s", n, seed, rep)
			}
		}
	}
}

func TestFig2ActivePairChoices(t *testing.T) {
	const n = 5
	f := dist.NewFailurePattern(n)
	for p := dist.ProcID(1); int(p) <= n; p++ {
		for q := p + 1; int(q) <= n; q++ {
			rep := runFig2(t, f, dist.NewProcSet(p, q), SigmaCanonical, 10, 7)
			if !rep.OK() {
				t.Fatalf("pair {p%d,p%d}: %s", int(p), int(q), rep)
			}
		}
	}
}

func TestFig2OnlyActivesCorrect(t *testing.T) {
	// The hard case of Theorem 4: every non-active process is faulty, so the
	// actives must reach agreement through Task 2 using σ's non-triviality.
	const n = 5
	f := dist.CrashPattern(n, 3, 4, 5)
	a := dist.NewProcSet(1, 2)
	for seed := int64(0); seed < 20; seed++ {
		rep := runFig2(t, f, a, SigmaCanonical, 30, seed)
		if !rep.OK() {
			t.Fatalf("seed=%d: %s", seed, rep)
		}
	}
}

func TestFig2SingleCorrectActive(t *testing.T) {
	// Only one active process is correct: it must terminate via the
	// {p} = queryFD() escape hatches of Phases 1 and 2.
	const n = 4
	f := dist.CrashPattern(n, 2, 3, 4) // p1 is the only correct process
	a := dist.NewProcSet(1, 2)
	for seed := int64(0); seed < 20; seed++ {
		rep := runFig2(t, f, a, SigmaCanonical, 25, seed)
		if !rep.OK() {
			t.Fatalf("seed=%d: %s", seed, rep)
		}
		if rep.Decided.IsEmpty() {
			t.Fatalf("seed=%d: no decisions", seed)
		}
	}
}

func TestFig2LateCrashes(t *testing.T) {
	// Crashes in the middle of the exchange.
	const n = 6
	a := dist.NewProcSet(2, 5)
	for seed := int64(0); seed < 10; seed++ {
		f := dist.NewFailurePattern(n)
		f.CrashAt(2, dist.Time(5+seed))
		f.CrashAt(3, dist.Time(11+seed))
		rep := runFig2(t, f, a, SigmaCanonical, 40, seed)
		if !rep.OK() {
			t.Fatalf("seed=%d: %s", seed, rep)
		}
	}
}

func TestFig2SilentSigma(t *testing.T) {
	// σ may stay silent (∅ forever) whenever some non-active process is
	// correct; the actives then decide through Task 1.
	const n = 5
	f := dist.CrashPattern(n, 4) // p3, p5 non-active and correct
	a := dist.NewProcSet(1, 2)
	for seed := int64(0); seed < 10; seed++ {
		rep := runFig2(t, f, a, SigmaSilent, 0, seed)
		if !rep.OK() {
			t.Fatalf("seed=%d: %s", seed, rep)
		}
	}
}

func TestFig2DecisionsAreAtMostNMinus1(t *testing.T) {
	// All-correct runs must eliminate at least one value: the actives agree
	// on a single value or adopt non-active values.
	const n = 3
	f := dist.NewFailurePattern(n)
	a := dist.NewProcSet(1, 3)
	for seed := int64(0); seed < 50; seed++ {
		rep := runFig2(t, f, a, SigmaCanonical, 15, seed)
		if !rep.OK() {
			t.Fatalf("seed=%d: %s", seed, rep)
		}
		if rep.Distinct > n-1 {
			t.Fatalf("seed=%d: %d distinct values", seed, rep.Distinct)
		}
	}
}

func TestSigmaOracleValid(t *testing.T) {
	patterns := []*dist.FailurePattern{
		dist.NewFailurePattern(5),
		dist.CrashPattern(5, 3, 4, 5),
		dist.CrashPattern(5, 1),
		dist.CrashPattern(5, 2, 3, 4, 5),
	}
	for _, f := range patterns {
		o, err := NewSigmaOracle(f, dist.NewProcSet(1, 2), 15, SigmaCanonical)
		if err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		if vs := CheckSigma(f, o.Active(), o, 120, 60); len(vs) != 0 {
			t.Fatalf("%v: canonical σ history invalid: %v", f, vs)
		}
	}
}

func TestSigmaSilentRejectedWhenCorrectInsideA(t *testing.T) {
	f := dist.CrashPattern(4, 3, 4) // Correct = {1,2} = A
	if _, err := NewSigmaOracle(f, dist.NewProcSet(1, 2), 0, SigmaSilent); err == nil {
		t.Fatal("SigmaSilent accepted although Correct ⊆ A")
	}
}
