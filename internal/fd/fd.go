// Package fd implements the failure-detector formalism of Chandra and Toueg
// as used by the paper: oracle histories parameterized by a failure pattern,
// the quorum failure detector family Σ_S (the weakest failure detector to
// implement an S-register, Proposition 1), the classic detectors the related
// work compares against (Ω, P, ◇P, anti-Ω), property checkers for each
// class, and a message-passing implementation of Σ_S for majority-correct
// environments (Section 2.2 remark).
//
// The paper's own σ/σₖ family lives in package core, next to the algorithms
// that use it.
package fd

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/trace"
)

// TrustList is the output range of the Σ_S family: ⊥ at processes outside
// S, and a list of trusted processes at members of S.
type TrustList struct {
	Bottom  bool
	Trusted dist.ProcSet
}

// String renders the output.
func (o TrustList) String() string {
	if o.Bottom {
		return "⊥"
	}
	return o.Trusted.String()
}

// SigmaSOracle is a valid Σ_S history generator (Section 2.2): it outputs,
// at each process of S, lists of trusted processes satisfying Intersection
// (every two lists intersect, over all processes of S and all times) and
// Completeness (eventually only correct processes are trusted). At crashed
// members of S it outputs Π, per the paper's convention.
//
// The canonical history outputs the alive set before the stabilization time
// and Correct(F) afterwards; both choices always contain Correct(F), which
// is what makes Intersection hold across arbitrary time pairs.
type SigmaSOracle struct {
	F    *dist.FailurePattern
	S    dist.ProcSet
	Stab dist.Time // stabilization time; 0 stabilizes immediately

	// Boxed outputs, cached so the simulator's per-step query path does not
	// allocate. lastAlive memoizes the pre-stabilization output, which only
	// changes when a crash changes the alive set.
	bottomOut, piOut, correctOut any
	lastAlive                    dist.ProcSet
	lastAliveOut                 any
}

// NewSigmaS returns the canonical Σ_S oracle for pattern f, shared-by set s,
// stabilizing at stab.
func NewSigmaS(f *dist.FailurePattern, s dist.ProcSet, stab dist.Time) *SigmaSOracle {
	return &SigmaSOracle{
		F: f, S: s, Stab: stab,
		bottomOut:  TrustList{Bottom: true},
		piOut:      TrustList{Trusted: f.All()},
		correctOut: TrustList{Trusted: f.Correct()},
	}
}

// NewSigma returns the canonical Σ = Σ_Π oracle.
func NewSigma(f *dist.FailurePattern, stab dist.Time) *SigmaSOracle {
	return NewSigmaS(f, f.All(), stab)
}

// Output implements the history H(p, t).
func (o *SigmaSOracle) Output(p dist.ProcID, t dist.Time) any {
	if !o.S.Contains(p) {
		if o.bottomOut == nil { // zero-value oracle built without NewSigmaS
			o.bottomOut = TrustList{Bottom: true}
		}
		return o.bottomOut
	}
	if !o.F.Alive(p, t) {
		if o.piOut == nil {
			o.piOut = TrustList{Trusted: o.F.All()}
		}
		return o.piOut // crashed member of S outputs Π
	}
	if t < o.Stab {
		alive := o.F.AliveAt(t)
		if o.lastAliveOut == nil || alive != o.lastAlive {
			o.lastAlive, o.lastAliveOut = alive, TrustList{Trusted: alive}
		}
		return o.lastAliveOut
	}
	if o.correctOut == nil {
		o.correctOut = TrustList{Trusted: o.F.Correct()}
	}
	return o.correctOut
}

// Violation describes a failure-detector property violation found by a
// checker: which property broke and a human-readable witness.
type Violation struct {
	Property string
	Witness  string
}

// Error renders the violation.
func (v Violation) Error() string {
	return fmt.Sprintf("%s violated: %s", v.Property, v.Witness)
}

// History is the failure-detector history interface consumed by checkers.
// It is structurally identical to sim.History; the duplication keeps fd free
// of a dependency on the simulator.
type History interface {
	Output(p dist.ProcID, t dist.Time) any
}

// CheckSigmaS verifies a Σ_S history over the finite horizon [0, horizon):
//
//   - Well-formedness: members of S output TrustList values, non-members ⊥.
//   - Intersection: every two non-⊥ trust lists (over all members and all
//     sampled times) intersect. An empty list is itself a violation.
//   - Completeness: for every correct member p of S, the suffix of outputs
//     starting at the last change before the horizon is a subset of
//     Correct(F); the stabilization must happen by stabBy.
//
// The horizon replaces the model's "eventually": the checker demands
// stabilization within the window, which is sound for the oracle and
// emulation histories this repository produces (they stabilize by
// construction or the test fails — a deliberately strict reading).
func CheckSigmaS(f *dist.FailurePattern, s dist.ProcSet, h History, horizon, stabBy dist.Time) []Violation {
	var out []Violation
	correct := f.Correct()

	type src struct {
		set dist.ProcSet
		p   dist.ProcID
		t   dist.Time
	}
	var lists []src // distinct trust sets, in first-output order (p, then t)
	seen := make(map[dist.ProcSet]bool)
	for _, p := range f.All().Members() {
		lastBad := dist.Time(-1)
		for t := dist.Time(0); t < horizon; t++ {
			raw := h.Output(p, t)
			tl, ok := raw.(TrustList)
			if !ok {
				out = append(out, Violation{Property: "well-formedness",
					Witness: fmt.Sprintf("H(p%d,%d) has type %T, want TrustList", int(p), int64(t), raw)})
				return out
			}
			if !s.Contains(p) {
				if !tl.Bottom {
					out = append(out, Violation{Property: "well-formedness",
						Witness: fmt.Sprintf("p%d ∉ S outputs %v, want ⊥", int(p), tl)})
					return out
				}
				continue
			}
			if tl.Bottom {
				out = append(out, Violation{Property: "well-formedness",
					Witness: fmt.Sprintf("p%d ∈ S outputs ⊥ at t=%d", int(p), int64(t))})
				return out
			}
			if tl.Trusted.IsEmpty() {
				out = append(out, Violation{Property: "intersection",
					Witness: fmt.Sprintf("H(p%d,%d) = ∅", int(p), int64(t))})
				return out
			}
			if !seen[tl.Trusted] {
				seen[tl.Trusted] = true
				lists = append(lists, src{set: tl.Trusted, p: p, t: t})
			}
			if correct.Contains(p) && !tl.Trusted.SubsetOf(correct) {
				lastBad = t
			}
		}
		if correct.Contains(p) && s.Contains(p) && lastBad >= stabBy {
			out = append(out, Violation{Property: "completeness",
				Witness: fmt.Sprintf("p%d still trusts a faulty process at t=%d (stabilization deadline %d)", int(p), int64(lastBad), int64(stabBy))})
		}
	}
	// Intersection over the distinct lists actually output.
	for i, a := range lists {
		for _, b := range lists[i:] {
			if !a.set.Intersects(b.set) {
				out = append(out, Violation{Property: "intersection",
					Witness: fmt.Sprintf("H(p%d,%d)=%v ∩ H(p%d,%d)=%v = ∅",
						int(a.p), int64(a.t), a.set, int(b.p), int64(b.t), b.set)})
			}
		}
	}
	return out
}

// RecordedHistory reconstructs an emulated failure-detector history from the
// EmuKind events of a run trace: H(p, t) is the value of p's output variable
// at time t (the last recorded change at or before t). Before the first
// recorded output the Default value is returned.
type RecordedHistory struct {
	Trace   *trace.Trace
	Default any
}

var _ History = (*RecordedHistory)(nil)

// Output implements History.
func (r *RecordedHistory) Output(p dist.ProcID, t dist.Time) any {
	if v, ok := trace.OutputAt(r.Trace, p, t); ok {
		return v
	}
	return r.Default
}
