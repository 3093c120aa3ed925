package separation

import (
	"testing"

	"repro/internal/dist"
	"repro/internal/fd"
	"repro/internal/sim"
)

// TestSearchRefutesStubbornCandidate: the constant-{p,q} candidate violates
// Completeness in every run with a crashed pair member, so the brute-force
// sweep finds it at the very first seed — on every worker count.
func TestSearchRefutesStubbornCandidate(t *testing.T) {
	const n = 3
	pair := dist.NewProcSet(1, 2)
	f := dist.CrashPattern(n, 2) // q = p2 crashed from the start
	const horizon = 800
	mk := func(workers int) SearchConfig {
		return SearchConfig{
			Pattern:   f,
			History:   sigmaConstant(pair, dist.ProcSet{}),
			Candidate: StubbornCandidate(pair),
			Check: func(h sim.History) []fd.Violation {
				return fd.CheckSigmaS(f, pair, h, horizon, horizon*3/4)
			},
			Horizon:   horizon,
			SeedStart: 7,
			Seeds:     8,
			Workers:   workers,
		}
	}
	base, err := Search(mk(1))
	if err != nil {
		t.Fatal(err)
	}
	if base.FirstFailSeed != 7 || base.Failures != 8 {
		t.Fatalf("stubborn candidate must fail every seed starting at 7: %+v", base)
	}
	par, err := Search(mk(8))
	if err != nil {
		t.Fatal(err)
	}
	if par.FirstFailSeed != base.FirstFailSeed || par.Failures != base.Failures {
		t.Fatalf("search not worker-count independent: %+v vs %+v", base, par)
	}
}

// TestSearchCannotRefuteHeartbeatCandidate is the paper's point made
// executable: the heartbeat candidate satisfies the Σ{p,q} definition in
// every single run, so no amount of per-run sampling refutes it — while the
// two-run Lemma 7 construction does (asserted alongside). Sharing really is
// harder than sampling suggests.
func TestSearchCannotRefuteHeartbeatCandidate(t *testing.T) {
	const n = 3
	pair := dist.NewProcSet(1, 2)
	f := dist.CrashPattern(n, 2)
	const horizon = 800
	res, err := Search(SearchConfig{
		Pattern:   f,
		History:   sigmaConstant(pair, dist.ProcSet{}),
		Candidate: HeartbeatCandidate(pair, 10),
		Check: func(h sim.History) []fd.Violation {
			return fd.CheckSigmaS(f, pair, h, horizon, horizon*3/4)
		},
		Horizon: horizon,
		Seeds:   16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 0 {
		t.Fatalf("single-run sampling unexpectedly refuted the heartbeat candidate: %v", res.FirstFailErr)
	}
	// The constructive harness refutes the very same candidate.
	cert, err := Lemma7(Lemma7Config{N: n, Candidate: HeartbeatCandidate(pair, 10), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if cert.Property != "intersection" {
		t.Fatalf("Lemma 7 should break the heartbeat candidate's intersection, got %s", cert)
	}
}

// TestSearchValidatesConfig covers the setup error path.
func TestSearchValidatesConfig(t *testing.T) {
	if _, err := Search(SearchConfig{}); err == nil {
		t.Fatal("empty SearchConfig accepted")
	}
}
