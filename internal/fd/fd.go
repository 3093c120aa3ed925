// Package fd implements the failure-detector formalism of Chandra and Toueg
// as used by the paper: oracle histories parameterized by a failure pattern,
// the quorum failure detector family Σ_S (the weakest failure detector to
// implement an S-register, Proposition 1), the classic detectors the
// separations and the consensus half use (Ω, anti-Ω), property checkers for
// each class, and a message-passing implementation of Σ_S for
// majority-correct environments (Section 2.2 remark).
//
// The paper's own σ/σₖ family lives in package core, next to the algorithms
// that use it; its checkers, like CheckSigmaS, describe their class to the
// one trust-list scan, CheckTrust.
package fd

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/dist"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TrustList is the output range of the Σ_S family: ⊥ at processes outside
// S, and a list of trusted processes at members of S. It is also the view
// CheckTrust takes of any trust-list class's output.
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
//
// Every output is boxed by NewSigmaS, so Output neither allocates nor
// writes and one oracle may serve concurrent runs. The pattern must not
// change after NewSigmaS.
type SigmaSOracle struct {
	f    *dist.FailurePattern
	s    dist.ProcSet
	stab dist.Time // stabilization time; 0 stabilizes immediately

	bottomOut, piOut, correctOut any
	// early[i] is the pre-stabilization output from the time of f's
	// transition i on; before the first transition every process is alive
	// and the output is piOut. It covers the transitions below stab.
	early []any
}

// NewSigmaS returns the canonical Σ_S oracle for pattern f, shared-by set s,
// stabilizing at stab.
func NewSigmaS(f *dist.FailurePattern, s dist.ProcSet, stab dist.Time) *SigmaSOracle {
	o := &SigmaSOracle{
		f: f, s: s, stab: stab,
		bottomOut:  TrustList{Bottom: true},
		piOut:      TrustList{Trusted: f.All()},
		correctOut: TrustList{Trusted: f.Correct()},
	}
	for _, x := range f.Transitions() {
		if x.T >= stab {
			break
		}
		o.early = append(o.early, TrustList{Trusted: f.AliveAt(x.T)})
	}
	return o
}

// NewSigma returns the canonical Σ = Σ_Π oracle.
func NewSigma(f *dist.FailurePattern, stab dist.Time) *SigmaSOracle {
	return NewSigmaS(f, f.All(), stab)
}

// Output implements the history H(p, t).
func (o *SigmaSOracle) Output(p dist.ProcID, t dist.Time) any {
	if !o.s.Contains(p) {
		return o.bottomOut
	}
	if !o.f.Alive(p, t) {
		return o.piOut // crashed member of S outputs Π
	}
	if t < o.stab {
		// k counts the transitions at or before t.
		k, _ := slices.BinarySearchFunc(o.f.Transitions()[:len(o.early)], t+1, func(x dist.Transition, t dist.Time) int { return cmp.Compare(x.T, t) })
		if k == 0 {
			return o.piOut
		}
		return o.early[k-1]
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

// CheckSigmaS verifies a Σ_S history with CheckTrust: members of S output
// TrustList values and non-members ⊥, every two trust lists intersect (so
// an empty list is itself a violation), and correct members trust only
// correct processes from stabBy on.
func CheckSigmaS(f *dist.FailurePattern, s dist.ProcSet, h sim.History, horizon, stabBy dist.Time) []Violation {
	return CheckTrust(f, TrustClass{
		Members: s, Name: "S", Type: "TrustList",
		Decode: func(v any) (TrustList, bool) {
			tl, ok := v.(TrustList)
			return tl, ok
		},
	}, h, horizon, stabBy)
}

// TrustClass describes a trust-list failure-detector class (Σ_S, σ, σₖ) to
// CheckTrust: processes outside Members output ⊥, members a trusted set.
type TrustClass struct {
	Members dist.ProcSet
	Name    string // how witnesses name Members: "S", "A"
	Type    string // the output type's name, for wrong-type witnesses
	// Decode reads an output; ok is false when it has the wrong type.
	Decode func(v any) (out TrustList, ok bool)
	// Shape, if set, names the rule a member's non-⊥ output breaks, or "".
	Shape func(v any) string
	// NonTrivial, if set, makes ∅ an idle output rather than an
	// Intersection violation, and returns the Non-triviality witness for
	// member p idle at t ≥ deadline, or "" when the rule does not bind p.
	NonTrivial func(p dist.ProcID, t, deadline dist.Time) string
	SetFormat  string // a trusted set in Intersection witnesses; "" is "%v"
}

// CheckTrust verifies history h against class c over the finite horizon
// [0, horizon), scanning processes, then times. The first ill-formed output
// ends the scan. Otherwise it reports, member by member, Completeness (a
// correct member still trusts a faulty process at or after stabBy) and
// Non-triviality, then every disjoint pair of distinct non-empty trusted
// sets, each named by its first output in (p, t) order; the sets range
// over all times, crashed members included.
//
// The horizon replaces the model's "eventually": the checker demands
// stabilization within the window, which is sound for the oracle and
// emulation histories this repository produces (they stabilize by
// construction or the test fails — a deliberately strict reading).
func CheckTrust(f *dist.FailurePattern, c TrustClass, h sim.History, horizon, stabBy dist.Time) []Violation {
	var out []Violation
	wellFormed := func(format string, args ...any) []Violation {
		return append(out, Violation{Property: "well-formedness", Witness: fmt.Sprintf(format, args...)})
	}
	correct := f.Correct()

	type src struct {
		set dist.ProcSet
		p   dist.ProcID
		t   dist.Time
	}
	var sets []src // distinct non-empty trusted sets, in first-output order
	seen := make(map[dist.ProcSet]bool)
	for _, p := range f.All().Members() {
		member := c.Members.Contains(p)
		lastBad, lastIdle := dist.Time(-1), dist.Time(-1) // last faulty trust, last ∅
		for t := dist.Time(0); t < horizon; t++ {
			raw := h.Output(p, t)
			o, ok := c.Decode(raw)
			switch {
			case !ok:
				return wellFormed("H(p%d,%d) has type %T, want %s", int(p), int64(t), raw, c.Type)
			case !member && !o.Bottom:
				return wellFormed("p%d ∉ %s outputs %v, want ⊥", int(p), c.Name, raw)
			case !member:
				continue
			case o.Bottom:
				return wellFormed("p%d ∈ %s outputs ⊥ at t=%d", int(p), c.Name, int64(t))
			}
			if c.Shape != nil {
				if rule := c.Shape(raw); rule != "" {
					return wellFormed("H(p%d,%d)=%v %s", int(p), int64(t), raw, rule)
				}
			}
			if o.Trusted.IsEmpty() {
				if c.NonTrivial == nil {
					return append(out, Violation{Property: "intersection",
						Witness: fmt.Sprintf("H(p%d,%d) = ∅", int(p), int64(t))})
				}
				lastIdle = t
				continue
			}
			if !seen[o.Trusted] {
				seen[o.Trusted] = true
				sets = append(sets, src{set: o.Trusted, p: p, t: t})
			}
			if correct.Contains(p) && !o.Trusted.SubsetOf(correct) {
				lastBad = t
			}
		}
		if member && correct.Contains(p) && lastBad >= stabBy {
			out = append(out, Violation{Property: "completeness",
				Witness: fmt.Sprintf("p%d still trusts a faulty process at t=%d (deadline %d)", int(p), int64(lastBad), int64(stabBy))})
		}
		if member && c.NonTrivial != nil && lastIdle >= stabBy {
			if w := c.NonTrivial(p, lastIdle, stabBy); w != "" {
				out = append(out, Violation{Property: "non-triviality", Witness: w})
			}
		}
	}

	set := c.SetFormat
	if set == "" {
		set = "%v"
	}
	disjoint := "H(p%d,%d)=" + set + " ∩ H(p%d,%d)=" + set + " = ∅"
	for i, a := range sets {
		for _, b := range sets[i:] {
			if !a.set.Intersects(b.set) {
				out = append(out, Violation{Property: "intersection",
					Witness: fmt.Sprintf(disjoint, int(a.p), int64(a.t), a.set, int(b.p), int64(b.t), b.set)})
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

var _ sim.History = (*RecordedHistory)(nil)

// Output implements sim.History.
func (r *RecordedHistory) Output(p dist.ProcID, t dist.Time) any {
	if v, ok := trace.OutputAt(r.Trace, p, t); ok {
		return v
	}
	return r.Default
}
