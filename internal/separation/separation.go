// Package separation makes the impossibility results of the paper
// executable. An impossibility proof quantifies over all algorithms, which
// no program can do; what it *constructs* is an adversarial pair (or chain)
// of runs that defeats any given algorithm. This package implements those
// constructions as harnesses: feed in any concrete candidate algorithm and
// the harness drives it through the proof's schedule, verifies the
// indistinguishability the argument relies on, and returns a Certificate
// naming the property the candidate violated.
//
//   - Lemma 7:  no algorithm emulates Σ₍p,q₎ from σ       (Section 3.3)
//   - Lemma 11: no algorithm emulates Σ_X₂ₖ from σ₂ₖ      (Section 4.3)
//   - Lemma 15: anti-Ω does not implement set agreement    (Appendix A.1)
//   - Tightness: Figure 4 with σ₂ₖ decides exactly n−k values in adversarial
//     runs, the executable content of Theorems 12/13       (Section 5)
package separation

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/fd"
	"repro/internal/sim"
)

// Certificate is the verdict of a refutation harness: the property the
// candidate algorithm violated and the constructed evidence.
type Certificate struct {
	// Lemma names the construction ("Lemma 7", "Lemma 11", "Lemma 15",
	// "Tightness").
	Lemma string
	// Property is the violated property ("intersection", "completeness",
	// "termination", "agreement", "validity").
	Property string
	// Detail is a human-readable witness.
	Detail string
	// ReplayVerified reports whether the harness mechanically confirmed the
	// indistinguishability of the replayed prefixes and, for an
	// intersection certificate, that output_p(t₁) is the same in both runs.
	ReplayVerified bool
}

// String renders the certificate.
func (c *Certificate) String() string {
	replay := ""
	if c.ReplayVerified {
		replay = " [replay verified]"
	}
	return fmt.Sprintf("%s: candidate violates %s%s — %s", c.Lemma, c.Property, replay, c.Detail)
}

// EmulatorProgram instantiates a candidate failure-detector emulation at
// each process.
type EmulatorProgram func(self dist.ProcID, n int) sim.Emulator

// Lemma7Config parameterizes the Lemma 7 construction.
type Lemma7Config struct {
	// N is the system size, 3..dist.MaxProcs.
	N int
	// P, Q form the pair whose Σ₍p,q₎ the candidate claims to emulate;
	// Aux is the auxiliary correct process of the proof. Set all three,
	// distinct and in 1..N, or none (defaults p1, p2, p3).
	P, Q, Aux dist.ProcID
	// Candidate is the emulation under refutation. Its Output must be an
	// fd.TrustList.
	Candidate EmulatorProgram
	// Seed drives the fair schedule portions.
	Seed int64
}

// lemma7Horizon bounds each run of Lemma 7: "eventually" must happen
// within it.
const lemma7Horizon = 4000

func (c *Lemma7Config) defaults() error {
	if c.N < 3 || c.N > dist.MaxProcs {
		return fmt.Errorf("separation: Lemma 7 needs 3 ≤ n ≤ %d, got %d", dist.MaxProcs, c.N)
	}
	if c.P == dist.None && c.Q == dist.None && c.Aux == dist.None {
		c.P, c.Q, c.Aux = 1, 2, 3
	}
	if s := dist.NewProcSet(c.P, c.Q, c.Aux); s.Len() != 3 || !s.SubsetOf(dist.FullSet(c.N)) {
		return fmt.Errorf("separation: Lemma 7 needs P, Q and Aux distinct in 1..%d (or all unset), got %d, %d, %d",
			c.N, int(c.P), int(c.Q), int(c.Aux))
	}
	return nil
}

// Lemma7 executes the two-run construction of Lemma 7 against the candidate
// emulation of Σ₍p,q₎ from σ and returns the resulting violation
// certificate. An error means the harness itself could not be set up, not
// that the candidate survived — by Lemma 7 no candidate survives, and the
// harness finds the concrete violation.
//
// Run r: p and aux are correct, q and everyone else crash at time 0; σ
// outputs ∅ at the actives {p, q} forever (valid since Correct ⊄ A). By
// Completeness of the emulated Σ₍p,q₎ there must be a time t₁ with
// output_p(t₁) ⊆ {aux, p}; if the candidate never gets there, that is
// already a completeness violation.
//
// Run r′: q is correct, p and aux crash right after t₁, and σ switches to
// {q} after t₁. The harness replays p's and aux's steps of r verbatim
// (verified by trace comparison), so output_p(t₁) is unchanged, then runs q
// alone until Completeness forces output_q(t₂) ⊆ {q}. Since output_p(t₁)
// and output_q(t₂) are disjoint, the Intersection property of Σ₍p,q₎ —
// which ranges over *all* time pairs, including times before crashes — is
// violated.
func Lemma7(cfg Lemma7Config) (*Certificate, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	if cfg.Candidate == nil {
		return nil, fmt.Errorf("separation: Lemma7Config.Candidate is required")
	}
	pair := dist.NewProcSet(cfg.P, cfg.Q)
	target, qSet := dist.NewProcSet(cfg.Aux, cfg.P), dist.NewProcSet(cfg.Q)
	res, err := (&twoRun{
		lemma: "Lemma 7", n: cfg.N, candidate: cfg.Candidate, horizon: lemma7Horizon, seed: cfg.Seed,
		first: target, p: cfg.P, history: sigmaConstant(pair, dist.ProcSet{}),
		second: qSet, q: cfg.Q, after: sigmaConstant(pair, qSet),
	}).run()
	if err != nil {
		return nil, err
	}
	cert := &Certificate{Lemma: "Lemma 7", Property: "completeness", ReplayVerified: res.replayOK}
	switch res.outcome {
	case stuckInR:
		cert.Detail = fmt.Sprintf("in run r (Correct={p%d,p%d}, σ silent) output_p%d never became ⊆ %v within %d steps",
			int(cfg.P), int(cfg.Aux), int(cfg.P), target, lemma7Horizon)
	case stuckInR2:
		cert.Detail = fmt.Sprintf("in run r′ (only p%d correct) output_p%d never became ⊆ {p%d} within %d steps",
			int(cfg.Q), int(cfg.Q), int(cfg.Q), lemma7Horizon)
	default:
		cert.Property = "intersection"
		cert.Detail = fmt.Sprintf("output_p%d(t₁=%d)=%v and output_p%d(t₂=%d)=%v are disjoint (replayed prefix gives %v at p%d in r′)",
			int(cfg.P), int64(res.t1), res.outP, int(cfg.Q), int64(res.t2), res.outQ, res.outPr2, int(cfg.P))
	}
	return cert, nil
}

// sigmaConstant is a constant σ history: every active process observes the
// same trusted set forever, non-actives observe ⊥.
func sigmaConstant(active dist.ProcSet, trusted dist.ProcSet) sim.HistoryFunc {
	return func(p dist.ProcID, t dist.Time) any {
		if !active.Contains(p) {
			return core.SigmaOut{Bottom: true}
		}
		return core.SigmaOut{Trusted: trusted}
	}
}

// trustListWithin reports whether a candidate's emulated output is a
// TrustList contained in bound.
func trustListWithin(out any, bound dist.ProcSet) bool {
	tl, ok := out.(fd.TrustList)
	if !ok || tl.Bottom {
		return false
	}
	return tl.Trusted.SubsetOf(bound)
}
