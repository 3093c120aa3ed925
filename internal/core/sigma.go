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
	"repro/internal/sim"
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

// CheckSigma verifies a history against Definition 3 for active pair a with
// fd.CheckTrust: trusted sets lie in A, and when Correct ⊆ A no active
// process outputs ∅ after stabBy (Non-triviality).
func CheckSigma(f *dist.FailurePattern, a dist.ProcSet, h sim.History, horizon, stabBy dist.Time) []fd.Violation {
	nonTrivial := f.Correct().SubsetOf(a)
	return fd.CheckTrust(f, fd.TrustClass{
		Members: a, Name: "A", Type: "SigmaOut",
		Decode: func(v any) (fd.TrustList, bool) {
			so, ok := v.(SigmaOut)
			return fd.TrustList(so), ok
		},
		Shape: func(v any) string {
			if !v.(SigmaOut).Trusted.SubsetOf(a) {
				return fmt.Sprintf("⊄ A=%v", a)
			}
			return ""
		},
		NonTrivial: func(p dist.ProcID, t, deadline dist.Time) string {
			if !nonTrivial {
				return ""
			}
			return fmt.Sprintf("Correct ⊆ A but H(p%d,%d)=∅ after deadline %d", int(p), int64(t), int64(deadline))
		},
	}, h, horizon, stabBy)
}
