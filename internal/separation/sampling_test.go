package separation

import (
	"fmt"
	"testing"

	"repro/internal/dist"
	"repro/internal/fd"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// sampleSigmaPair sweeps cand across seeds [seedStart, seedStart+seeds) in
// n = 3 with q = p2 crashed from the start under a silent σ, and checks each
// run's emulated history against the Σ{p1,p2} definition over 800 steps.
// It is the per-run sampling that the constructive harnesses go beyond.
func sampleSigmaPair(t *testing.T, cand EmulatorProgram, seedStart, seeds int64, workers int) *sweep.Result {
	t.Helper()
	const horizon = 800
	pair := dist.NewProcSet(1, 2)
	f := dist.CrashPattern(3, 2)
	prog := func(p dist.ProcID, n int) sim.Automaton { return cand(p, n) }
	res, err := sweep.Run(sweep.Config{
		Sim: func() sim.Config {
			return sim.Config{Pattern: f, History: sigmaConstant(pair, dist.ProcSet{}), Program: prog, MaxSteps: horizon}
		},
		SeedStart: seedStart,
		Seeds:     seeds,
		Workers:   workers,
		Check: func(_ int64, r *sim.Result) error {
			if vs := fd.CheckSigmaS(f, pair, &fd.RecordedHistory{Trace: r.Trace}, horizon, horizon*3/4); len(vs) != 0 {
				return fmt.Errorf("%v", vs)
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSamplingRefutesStubbornCandidate: the constant-{p,q} candidate
// violates Completeness in every run with a crashed pair member, so
// sampling single runs finds it at the very first seed — on every worker
// count.
func TestSamplingRefutesStubbornCandidate(t *testing.T) {
	pair := dist.NewProcSet(1, 2)
	base := sampleSigmaPair(t, StubbornCandidate(pair), 7, 8, 1)
	if base.FirstFailSeed != 7 || base.Failures != 8 {
		t.Fatalf("stubborn candidate must fail every seed starting at 7: %+v", base)
	}
	par := sampleSigmaPair(t, StubbornCandidate(pair), 7, 8, 8)
	if par.FirstFailSeed != base.FirstFailSeed || par.Failures != base.Failures {
		t.Fatalf("sampling not worker-count independent: %+v vs %+v", base, par)
	}
}

// TestSamplingCannotRefuteHeartbeatCandidate is the paper's point made
// executable: the heartbeat candidate satisfies the Σ{p,q} definition in
// every single run, so no amount of per-run sampling refutes it — while the
// two-run Lemma 7 construction does (asserted alongside). Sharing really is
// harder than sampling suggests.
func TestSamplingCannotRefuteHeartbeatCandidate(t *testing.T) {
	pair := dist.NewProcSet(1, 2)
	res := sampleSigmaPair(t, HeartbeatCandidate(pair, 10), 0, 16, 0)
	if res.Failures != 0 {
		t.Fatalf("single-run sampling unexpectedly refuted the heartbeat candidate: %v", res.FirstFailErr)
	}
	// The constructive harness refutes the very same candidate.
	cert, err := Lemma7(Lemma7Config{N: 3, Candidate: HeartbeatCandidate(pair, 10), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if cert.Property != "intersection" {
		t.Fatalf("Lemma 7 should break the heartbeat candidate's intersection, got %s", cert)
	}
}
