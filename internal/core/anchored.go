package core

import (
	"fmt"

	"repro/internal/dist"
)

// AnchoredSigmaOracle is an adversarial-but-valid σ history: outputs flip
// pseudo-randomly between ∅ and supersets of a fixed *anchor* process. The
// anchor construction is what keeps Intersection unbreakable — every
// non-empty output contains the anchor — while exercising far more of the
// consumers' branches than the canonical history (spurious {p} readings,
// flapping between ∅ and non-∅, asymmetric views at the two actives).
//
// The anchor is a correct member of A when one exists (Completeness then
// pins the stabilized outputs inside Correct); when both actives are faulty
// the oracle is free to output arbitrary anchored noise until the horizon —
// there is no correct active for Completeness to constrain.
type AnchoredSigmaOracle struct {
	f    *dist.FailurePattern
	a    dist.ProcSet
	stab dist.Time
	seed uint64
}

// NewAnchoredSigma builds the adversarial σ oracle.
func NewAnchoredSigma(f *dist.FailurePattern, a dist.ProcSet, stab dist.Time, seed int64) (*AnchoredSigmaOracle, error) {
	if a.Len() != 2 || !a.SubsetOf(f.All()) {
		return nil, fmt.Errorf("core: active set %v must be a pair of processes in Π", a)
	}
	return &AnchoredSigmaOracle{f: f, a: a, stab: stab, seed: uint64(seed)}, nil
}

// Active returns the active pair A.
func (o *AnchoredSigmaOracle) Active() dist.ProcSet { return o.a }

// Output implements the history H(p, t).
func (o *AnchoredSigmaOracle) Output(p dist.ProcID, t dist.Time) any {
	if !o.a.Contains(p) {
		return SigmaOut{Bottom: true}
	}
	anchor := o.f.Correct().Intersect(o.a).Min()
	if anchor == dist.None {
		// Both actives faulty: anchored noise, unconstrained by
		// Completeness and Non-triviality (both vacuous).
		anchor = o.a.Min()
	}
	r := mix(o.seed, uint64(p), uint64(t))
	if t < o.stab {
		switch r % 3 {
		case 0:
			return SigmaOut{}
		case 1:
			return SigmaOut{Trusted: dist.NewProcSet(anchor)}
		default:
			return SigmaOut{Trusted: o.a} // anchor ∈ A ⊆ this
		}
	}
	// Stabilized: non-empty (non-triviality) and ⊆ Correct ∩ A when a
	// correct active exists (completeness), still flapping in shape.
	stable := o.f.Correct().Intersect(o.a)
	if stable.IsEmpty() {
		stable = dist.NewProcSet(anchor)
	}
	if r%2 == 0 {
		return SigmaOut{Trusted: dist.NewProcSet(anchor)}
	}
	return SigmaOut{Trusted: stable}
}

// AnchoredSigmaKOracle is the σₖ analogue of AnchoredSigmaOracle: anchored
// pseudo-random (X, A) outputs, valid by the same argument.
type AnchoredSigmaKOracle struct {
	f    *dist.FailurePattern
	a    dist.ProcSet
	stab dist.Time
	seed uint64
}

// NewAnchoredSigmaK builds the adversarial σₖ oracle.
func NewAnchoredSigmaK(f *dist.FailurePattern, a dist.ProcSet, stab dist.Time, seed int64) (*AnchoredSigmaKOracle, error) {
	if a.IsEmpty() || !a.SubsetOf(f.All()) {
		return nil, fmt.Errorf("core: active set %v must be a non-empty subset of Π", a)
	}
	return &AnchoredSigmaKOracle{f: f, a: a, stab: stab, seed: uint64(seed)}, nil
}

// Active returns the active set A.
func (o *AnchoredSigmaKOracle) Active() dist.ProcSet { return o.a }

// Output implements the history H(p, t).
func (o *AnchoredSigmaKOracle) Output(p dist.ProcID, t dist.Time) any {
	if !o.a.Contains(p) {
		return SigmaKOut{Bottom: true}
	}
	correctActive := o.f.Correct().Intersect(o.a)
	anchor := correctActive.Min()
	if anchor == dist.None {
		anchor = o.a.Min()
	}
	r := mix(o.seed, uint64(p), uint64(t))
	if t < o.stab {
		switch r % 3 {
		case 0:
			return SigmaKOut{Active: o.a} // (∅, A)
		case 1:
			return SigmaKOut{Trusted: dist.NewProcSet(anchor), Active: o.a}
		default:
			return SigmaKOut{Trusted: o.a, Active: o.a}
		}
	}
	stable := correctActive
	if stable.IsEmpty() {
		stable = dist.NewProcSet(anchor)
	}
	if r%2 == 0 {
		return SigmaKOut{Trusted: dist.NewProcSet(anchor), Active: o.a}
	}
	return SigmaKOut{Trusted: stable, Active: o.a}
}

// mix is a SplitMix64-style stateless hash over (seed, p, t): oracle outputs
// must be pure functions of the query, never of query order. It folds its
// inputs differently from sim.Mix, and the anchored oracles' outputs (and
// the runs pinned on them) depend on exactly this folding.
func mix(seed, p, t uint64) uint64 {
	z := seed ^ (p * 0x9e3779b97f4a7c15) ^ (t * 0xbf58476d1ce4e5b9)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
