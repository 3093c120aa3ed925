package separation

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/sim"
)

// Lemma11Config parameterizes the Lemma 11 construction: no algorithm
// emulates Σ_X₂ₖ from σ₂ₖ.
type Lemma11Config struct {
	// N is the system size (at most dist.MaxProcs). X ⊆ Π is the
	// 2k-process set whose Σ_X the candidate claims to emulate; default
	// {1..2k}.
	N, K int
	X    dist.ProcSet
	// Candidate is the emulation under refutation (outputs fd.TrustList).
	Candidate EmulatorProgram
	// Seed drives the fair schedule portions.
	Seed int64
}

// lemma11Horizon bounds each run of Lemma 11.
const lemma11Horizon = 6000

func (c *Lemma11Config) defaults() error {
	if c.N > dist.MaxProcs {
		return fmt.Errorf("separation: Lemma 11 needs n ≤ %d, got %d", dist.MaxProcs, c.N)
	}
	if c.K < 1 || 2*c.K > c.N {
		return fmt.Errorf("separation: need 1 ≤ k ≤ n/2, got n=%d k=%d", c.N, c.K)
	}
	if c.X.IsEmpty() {
		c.X = dist.RangeSet(1, dist.ProcID(2*c.K))
	}
	if c.X.Len() != 2*c.K {
		return fmt.Errorf("separation: |X|=%d, want 2k=%d", c.X.Len(), 2*c.K)
	}
	if !c.X.SubsetOf(dist.FullSet(c.N)) {
		return fmt.Errorf("separation: Lemma 11 needs X ⊆ Π=%v, got X=%v", dist.FullSet(c.N), c.X)
	}
	if c.Candidate == nil {
		return fmt.Errorf("separation: Lemma11Config.Candidate is required")
	}
	return nil
}

// Lemma11 executes the construction of Lemma 11 against a candidate
// emulation of Σ_X₂ₖ from σ₂ₖ.
//
// For n > 2k the construction mirrors Lemma 7 with the active set X and an
// auxiliary correct process outside X. For the special case n = 2k it uses
// the (∅, Π)-forever history: with one correct process in each half the
// history carries no failure information at all, so two disjoint "surviving
// pairs" produce disjoint outputs across indistinguishable prefixes.
func Lemma11(cfg Lemma11Config) (*Certificate, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	if cfg.N == 2*cfg.K {
		return lemma11Tight(cfg)
	}
	return lemma11General(cfg)
}

// sigmaK is the σ₂ₖ history (trusted, X) at the members of X, ⊥ elsewhere.
func sigmaK(x, trusted dist.ProcSet) sim.HistoryFunc {
	return func(id dist.ProcID, t dist.Time) any {
		if !x.Contains(id) {
			return core.SigmaKOut{Bottom: true}
		}
		return core.SigmaKOut{Trusted: trusted, Active: x}
	}
}

// lemma11General: n > 2k. Run r: p = min(X) and an auxiliary process outside
// X are correct; σ₂ₖ outputs (∅, X) forever. Completeness forces
// output_p ⊆ {p, aux}. Run r′: only q (another member of X) is correct, the
// prefix is replayed, σ₂ₖ switches to ({q}, X); Completeness forces
// output_q ⊆ {q}, disjoint from output_p — Intersection broken.
func lemma11General(cfg Lemma11Config) (*Certificate, error) {
	p := cfg.X.Min()
	q := cfg.X.Remove(p).Min()
	aux := dist.FullSet(cfg.N).Minus(cfg.X).Min()
	target, qSet := dist.NewProcSet(p, aux), dist.NewProcSet(q)
	res, err := (&twoRun{
		lemma: "Lemma 11", n: cfg.N, candidate: cfg.Candidate, horizon: lemma11Horizon, seed: cfg.Seed,
		first: target, p: p, history: sigmaK(cfg.X, dist.ProcSet{}),
		second: qSet, q: q, after: sigmaK(cfg.X, qSet),
	}).run()
	if err != nil {
		return nil, err
	}
	cert := &Certificate{Lemma: "Lemma 11", Property: "completeness", ReplayVerified: res.replayOK}
	switch res.outcome {
	case stuckInR:
		cert.Detail = fmt.Sprintf("in run r (Correct={p%d,p%d}, σ₂ₖ idle) output_p%d never became ⊆ %v within %d steps",
			int(p), int(aux), int(p), target, lemma11Horizon)
	case stuckInR2:
		cert.Detail = fmt.Sprintf("in run r′ (only p%d correct) output_p%d never became ⊆ {p%d} within %d steps",
			int(q), int(q), int(q), lemma11Horizon)
	default:
		cert.Property = "intersection"
		cert.Detail = fmt.Sprintf("output_p%d(t₁=%d)=%v ∩ output_p%d(t₂=%d)=%v = ∅",
			int(p), int64(res.t1), res.outP, int(q), int64(res.t2), res.outQ)
	}
	return cert, nil
}

// lemma11Tight: n = 2k. With one correct process per half, σₙ may output
// (∅, Π) forever. Run r keeps {low₁, high₁} correct; Completeness forces
// output_low₁ ⊆ {low₁, high₁}. Run r′ replays the prefix, crashes them, and
// keeps the disjoint straddling pair {low₂, high₂} correct under the same
// all-idle history — Completeness then forces an output disjoint from the
// first. The candidate cannot tell the two worlds apart because (∅, Π)
// carries no failure information.
func lemma11Tight(cfg Lemma11Config) (*Certificate, error) {
	if cfg.N < 4 {
		return nil, fmt.Errorf("separation: the n=2k case needs n ≥ 4, got %d", cfg.N)
	}
	low, high := core.Halves(cfg.X)
	l1, h1 := low.Min(), high.Min()
	l2, h2 := low.Remove(l1).Min(), high.Remove(h1).Min()
	pair1, pair2 := dist.NewProcSet(l1, h1), dist.NewProcSet(l2, h2)
	idle := sigmaK(cfg.X, dist.ProcSet{}) // (∅, Π)
	res, err := (&twoRun{
		lemma: "Lemma 11 (n=2k)", n: cfg.N, candidate: cfg.Candidate, horizon: lemma11Horizon, seed: cfg.Seed,
		first: pair1, p: l1, history: idle,
		second: pair2, q: l2, after: idle,
	}).run()
	if err != nil {
		return nil, err
	}
	cert := &Certificate{Lemma: "Lemma 11 (n=2k)", Property: "completeness", ReplayVerified: res.replayOK}
	switch res.outcome {
	case stuckInR:
		cert.Detail = fmt.Sprintf("in run r (Correct=%v, history (∅,Π)) output_p%d never became ⊆ %v within %d steps",
			pair1, int(l1), pair1, lemma11Horizon)
	case stuckInR2:
		cert.Detail = fmt.Sprintf("in run r′ (Correct=%v) output_p%d never became ⊆ %v within %d steps",
			pair2, int(l2), pair2, lemma11Horizon)
	default:
		cert.Property = "intersection"
		cert.Detail = fmt.Sprintf("output_p%d(t₁=%d)=%v ∩ output_p%d(t₂=%d)=%v = ∅",
			int(l1), int64(res.t1), res.outP, int(l2), int64(res.t2), res.outQ)
	}
	return cert, nil
}
