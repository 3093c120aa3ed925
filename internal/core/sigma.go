// Package core implements the primary contribution of "Sharing is Harder
// than Agreeing" (Delporte-Gallet, Fauconnier, Guerraoui, PODC 2008): the σ
// and σₖ failure-detector families (Definitions 3 and 9), the agreement
// algorithms built on them (Figures 2 and 4), and the failure-detector
// reductions relating them to the register family Σ_S and to anti-Ω
// (Figures 3, 5 and 6).
package core

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/fd"
)

// SigmaOut is the output range of σ (Definition 3): ⊥ at every process
// outside the active pair A, and a (possibly empty) subset of A at the two
// active processes.
type SigmaOut struct {
	Bottom  bool
	Trusted dist.ProcSet
}

// String renders the output.
func (o SigmaOut) String() string {
	if o.Bottom {
		return "⊥"
	}
	return o.Trusted.String()
}

// SigmaMode selects which valid σ history the oracle produces.
type SigmaMode uint8

// Oracle modes.
const (
	// SigmaCanonical outputs ∅ before the stabilization time and
	// Correct(F) ∩ A afterwards. It is valid in every failure pattern.
	SigmaCanonical SigmaMode = iota + 1
	// SigmaSilent outputs ∅ at the active processes forever. It is valid
	// exactly when Correct(F) ⊄ A (non-triviality is then vacuous); this is
	// the history used in the Lemma 7 construction.
	SigmaSilent
)

// SigmaOracle generates valid σ histories for a fixed active pair. Its
// three possible outputs are boxed once at construction, so Output on the
// simulator's query path does not allocate.
type SigmaOracle struct {
	f    *dist.FailurePattern
	a    dist.ProcSet
	stab dist.Time
	mode SigmaMode

	bottomOut any // SigmaOut{Bottom: true}
	emptyOut  any // SigmaOut{}
	stabOut   any // SigmaOut{Trusted: Correct(F) ∩ A}
}

// NewSigmaOracle builds a σ oracle for failure pattern f with active pair a.
// It returns an error when a is not a pair of processes or when the
// requested mode would violate Definition 3 in f.
func NewSigmaOracle(f *dist.FailurePattern, a dist.ProcSet, stab dist.Time, mode SigmaMode) (*SigmaOracle, error) {
	if a.Len() != 2 || !a.SubsetOf(f.All()) {
		return nil, fmt.Errorf("core: active set %v must be a pair of processes in Π", a)
	}
	if mode == SigmaSilent && f.Correct().SubsetOf(a) {
		return nil, fmt.Errorf("core: SigmaSilent is invalid when Correct(F)=%v ⊆ A=%v (non-triviality)", f.Correct(), a)
	}
	if mode == 0 {
		mode = SigmaCanonical
	}
	return &SigmaOracle{
		f: f, a: a, stab: stab, mode: mode,
		bottomOut: SigmaOut{Bottom: true},
		emptyOut:  SigmaOut{},
		stabOut:   SigmaOut{Trusted: f.Correct().Intersect(a)},
	}, nil
}

// Active returns the active pair A.
func (o *SigmaOracle) Active() dist.ProcSet { return o.a }

// Output implements the history H(p, t).
func (o *SigmaOracle) Output(p dist.ProcID, t dist.Time) any {
	if !o.a.Contains(p) {
		return o.bottomOut
	}
	if o.mode == SigmaSilent || t < o.stab {
		return o.emptyOut
	}
	// Canonical stabilized output: the correct members of A. When both
	// actives are faulty this is ∅, which is valid (completeness and
	// non-triviality are then vacuous).
	return o.stabOut
}

// CheckSigma verifies a history against Definition 3 for active pair a over
// the finite horizon: Well-formedness, Completeness (stabilized by stabBy),
// Intersection (over all sampled outputs, including those of processes that
// later crash — the property ranges over all time pairs), and
// Non-triviality.
func CheckSigma(f *dist.FailurePattern, a dist.ProcSet, h fd.History, horizon, stabBy dist.Time) []fd.Violation {
	var out []fd.Violation
	correct := f.Correct()

	type src struct {
		set dist.ProcSet
		p   dist.ProcID
		t   dist.Time
	}
	var nonEmpty []src // distinct trust sets, in first-output order (p, then t)
	seen := make(map[dist.ProcSet]bool)

	for _, p := range f.All().Members() {
		lastBad := dist.Time(-1)   // completeness: trusted ⊄ Correct
		lastEmpty := dist.Time(-1) // non-triviality: output = ∅
		for t := dist.Time(0); t < horizon; t++ {
			raw := h.Output(p, t)
			so, ok := raw.(SigmaOut)
			if !ok {
				return append(out, fd.Violation{Property: "well-formedness",
					Witness: fmt.Sprintf("H(p%d,%d) has type %T, want SigmaOut", int(p), int64(t), raw)})
			}
			if !a.Contains(p) {
				if !so.Bottom {
					return append(out, fd.Violation{Property: "well-formedness",
						Witness: fmt.Sprintf("p%d ∉ A outputs %v, want ⊥", int(p), so)})
				}
				continue
			}
			if so.Bottom {
				return append(out, fd.Violation{Property: "well-formedness",
					Witness: fmt.Sprintf("p%d ∈ A outputs ⊥ at t=%d", int(p), int64(t))})
			}
			if !so.Trusted.SubsetOf(a) {
				return append(out, fd.Violation{Property: "well-formedness",
					Witness: fmt.Sprintf("H(p%d,%d)=%v ⊄ A=%v", int(p), int64(t), so.Trusted, a)})
			}
			if so.Trusted.IsEmpty() {
				lastEmpty = t
			} else if !seen[so.Trusted] {
				seen[so.Trusted] = true
				nonEmpty = append(nonEmpty, src{set: so.Trusted, p: p, t: t})
			}
			if correct.Contains(p) && !so.Trusted.SubsetOf(correct) {
				lastBad = t
			}
		}
		if a.Contains(p) && correct.Contains(p) && lastBad >= stabBy {
			out = append(out, fd.Violation{Property: "completeness",
				Witness: fmt.Sprintf("p%d still trusts a faulty process at t=%d (deadline %d)", int(p), int64(lastBad), int64(stabBy))})
		}
		if a.Contains(p) && correct.SubsetOf(a) && lastEmpty >= stabBy {
			out = append(out, fd.Violation{Property: "non-triviality",
				Witness: fmt.Sprintf("Correct ⊆ A but H(p%d,%d)=∅ after deadline %d", int(p), int64(lastEmpty), int64(stabBy))})
		}
	}

	for i, x := range nonEmpty {
		for _, y := range nonEmpty[i:] {
			if !x.set.Intersects(y.set) {
				out = append(out, fd.Violation{Property: "intersection",
					Witness: fmt.Sprintf("H(p%d,%d)=%v ∩ H(p%d,%d)=%v = ∅",
						int(x.p), int64(x.t), x.set, int(y.p), int64(y.t), y.set)})
			}
		}
	}
	return out
}
