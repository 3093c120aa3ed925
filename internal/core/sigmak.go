package core

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/fd"
	"repro/internal/sim"
)

// SigmaKOut is the output range of σₖ (Definition 9): ⊥ at processes outside
// the active set A; at active processes either the no-information output ∅
// (Empty) or a pair (X, A) with X ⊆ A.
//
// Note on ∅ vs (∅, A): Definition 9 writes the no-information output as a
// plain ∅, while the Lemma 11 discussion writes it (∅, Π) — a pair with an
// empty trust component but a visible active set. We keep both forms: Empty
// is the plain ∅, and a pair with Trusted = ∅ is (∅, A). The algorithm of
// Figure 4 can only make progress on its own once the active set is visible,
// so histories that must support progress use (∅, A) as their idle output.
type SigmaKOut struct {
	Bottom  bool
	Empty   bool
	Trusted dist.ProcSet // X
	Active  dist.ProcSet // A
}

// ActivePart is the `queryFD().active` accessor of Figure 4: ∅ for the
// no-information output, A for pair outputs. Callers must check Bottom
// first (the paper compares against ⊥ explicitly).
func (o SigmaKOut) ActivePart() dist.ProcSet {
	if o.Bottom || o.Empty {
		return dist.ProcSet{}
	}
	return o.Active
}

// TrustPart is the `queryFD().trust` accessor of Figure 4.
func (o SigmaKOut) TrustPart() dist.ProcSet {
	if o.Bottom || o.Empty {
		return dist.ProcSet{}
	}
	return o.Trusted
}

// String renders the output.
func (o SigmaKOut) String() string {
	switch {
	case o.Bottom:
		return "⊥"
	case o.Empty:
		return "∅"
	default:
		return fmt.Sprintf("(%v,%v)", o.Trusted, o.Active)
	}
}

// Halves splits an active set into A (the ⌊|A|/2⌋ smallest processes) and Ā
// (the rest), as in Definition 9 and Figure 4.
func Halves(active dist.ProcSet) (low, high dist.ProcSet) {
	low = active.Smallest(active.Len() / 2)
	return low, active.Minus(low)
}

// SigmaKMode selects which valid σₖ history the oracle produces.
type SigmaKMode uint8

// Oracle modes.
const (
	// SigmaKCanonical outputs (∅, A) before the stabilization time and
	// (Correct ∩ A, A) afterwards (or (∅, A) when no active is correct).
	// Valid in every failure pattern.
	SigmaKCanonical SigmaKMode = iota + 1
	// SigmaKNoInfo outputs (∅, A) forever. Valid exactly when neither
	// Correct ⊆ low-half nor Correct ⊆ high-half (non-triviality vacuous);
	// this is the "(∅, Π)" history of the Lemma 11 n = 2k construction.
	SigmaKNoInfo
	// SigmaKTrustLow outputs (Correct ∩ low-half, A) after stabilization:
	// the active processes learn about failures of the low half only. Used
	// by the tightness experiment (E7) to drive the Figure 4 loop exits.
	SigmaKTrustLow
)

// SigmaKOracle generates valid σₖ histories for a fixed active set. Its
// three possible outputs are boxed once at construction, so Output on the
// simulator's query path does not allocate.
type SigmaKOracle struct {
	f    *dist.FailurePattern
	a    dist.ProcSet
	stab dist.Time
	mode SigmaKMode

	bottomOut any // SigmaKOut{Bottom: true}
	idleOut   any // (∅, A)
	stabOut   any // (trust, A) per mode
}

// NewSigmaKOracle builds a σₖ oracle (k = |a|) for failure pattern f. It
// returns an error when the requested mode would violate Definition 9 in f.
func NewSigmaKOracle(f *dist.FailurePattern, a dist.ProcSet, stab dist.Time, mode SigmaKMode) (*SigmaKOracle, error) {
	if a.IsEmpty() || !a.SubsetOf(f.All()) {
		return nil, fmt.Errorf("core: active set %v must be a non-empty subset of Π", a)
	}
	if mode == 0 {
		mode = SigmaKCanonical
	}
	low, high := Halves(a)
	correct := f.Correct()
	switch mode {
	case SigmaKNoInfo:
		if correct.SubsetOf(low) || correct.SubsetOf(high) {
			return nil, fmt.Errorf("core: SigmaKNoInfo invalid: Correct=%v inside one half of A=%v (non-triviality)", correct, a)
		}
	case SigmaKTrustLow:
		if correct.Intersect(low).IsEmpty() && (correct.SubsetOf(low) || correct.SubsetOf(high)) {
			return nil, fmt.Errorf("core: SigmaKTrustLow invalid: no correct process in the low half of %v", a)
		}
	}
	o := &SigmaKOracle{f: f, a: a, stab: stab, mode: mode}
	trust := correct.Intersect(a)
	if mode == SigmaKTrustLow {
		trust = correct.Intersect(low)
	}
	o.bottomOut = SigmaKOut{Bottom: true}
	o.idleOut = SigmaKOut{Active: a}
	if trust.IsEmpty() {
		o.stabOut = o.idleOut
	} else {
		o.stabOut = SigmaKOut{Trusted: trust, Active: a}
	}
	return o, nil
}

// Active returns the active set A.
func (o *SigmaKOracle) Active() dist.ProcSet { return o.a }

// Output implements the history H(p, t).
func (o *SigmaKOracle) Output(p dist.ProcID, t dist.Time) any {
	if !o.a.Contains(p) {
		return o.bottomOut
	}
	if t < o.stab || o.mode == SigmaKNoInfo {
		return o.idleOut
	}
	return o.stabOut
}

// CheckSigmaK verifies a history against Definition 9 for active set a with
// fd.CheckTrust: outputs are ∅ or (X ⊆ A, A), and when Correct lies inside
// one half of A no correct active process is left without trust after
// stabBy (Non-triviality).
func CheckSigmaK(f *dist.FailurePattern, a dist.ProcSet, h sim.History, horizon, stabBy dist.Time) []fd.Violation {
	correct := f.Correct()
	low, high := Halves(a)
	nonTrivial := correct.SubsetOf(low) || correct.SubsetOf(high)
	return fd.CheckTrust(f, fd.TrustClass{
		Members: a, Name: "A", Type: "SigmaKOut",
		Decode: func(v any) (fd.TrustList, bool) {
			so, ok := v.(SigmaKOut)
			return fd.TrustList{Bottom: so.Bottom, Trusted: so.TrustPart()}, ok
		},
		Shape: func(v any) string {
			if so := v.(SigmaKOut); !so.Empty && (so.Active != a || !so.Trusted.SubsetOf(a)) {
				return fmt.Sprintf("not of form (X⊆A, A) for A=%v", a)
			}
			return ""
		},
		NonTrivial: func(p dist.ProcID, t, deadline dist.Time) string {
			if !nonTrivial || !correct.Contains(p) {
				return ""
			}
			return fmt.Sprintf("Correct inside one half of A but H(p%d,%d) carries no trust after deadline %d", int(p), int64(t), int64(deadline))
		},
		SetFormat: "(%v,·)",
	}, h, horizon, stabBy)
}
