package core

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/dist"
	"repro/internal/fd"
	"repro/internal/sim"
)

// TestTrustCheckerVerdictsPinned pins the full violation list of the three
// trust-list checkers (Σ_S, σ, σₖ) on one history per shape: wrong type, ⊥
// at a member, non-⊥ at a non-member, each shape rule, the empty output,
// Completeness missed by the deadline, each Non-triviality rule and several
// disjoint pairs. Property names, witness text and witness order are all
// part of the verdict.
func TestTrustCheckerVerdictsPinned(t *testing.T) {
	type row struct {
		name  string
		check func() []fd.Violation
		want  []fd.Violation
	}
	wf := func(w string) fd.Violation { return fd.Violation{Property: "well-formedness", Witness: w} }
	in := func(w string) fd.Violation { return fd.Violation{Property: "intersection", Witness: w} }
	co := func(w string) fd.Violation { return fd.Violation{Property: "completeness", Witness: w} }
	nt := func(w string) fd.Violation { return fd.Violation{Property: "non-triviality", Witness: w} }

	// member answers out(p, t) at members of set and bottom elsewhere.
	member := func(set dist.ProcSet, bottom any, out func(p dist.ProcID, t dist.Time) any) sim.History {
		return sim.HistoryFunc(func(p dist.ProcID, t dist.Time) any {
			if !set.Contains(p) {
				return bottom
			}
			return out(p, t)
		})
	}
	sigmaS := func(f *dist.FailurePattern, s dist.ProcSet, out func(p dist.ProcID, t dist.Time) any) func() []fd.Violation {
		return func() []fd.Violation {
			return fd.CheckSigmaS(f, s, member(s, fd.TrustList{Bottom: true}, out), 20, 10)
		}
	}
	sigma := func(f *dist.FailurePattern, a dist.ProcSet, out func(p dist.ProcID, t dist.Time) any) func() []fd.Violation {
		return func() []fd.Violation {
			return CheckSigma(f, a, member(a, SigmaOut{Bottom: true}, out), 20, 10)
		}
	}
	sigmaK := func(f *dist.FailurePattern, a dist.ProcSet, out func(p dist.ProcID, t dist.Time) any) func() []fd.Violation {
		return func() []fd.Violation {
			return CheckSigmaK(f, a, member(a, SigmaKOut{Bottom: true}, out), 20, 10)
		}
	}
	// at returns good until time from, then bad at process q (every
	// process when q is 0).
	at := func(q dist.ProcID, from dist.Time, good, bad any) func(p dist.ProcID, t dist.Time) any {
		return func(p dist.ProcID, t dist.Time) any {
			if t >= from && (q == 0 || p == q) {
				return bad
			}
			return good
		}
	}
	always := func(out any) func(dist.ProcID, dist.Time) any {
		return func(dist.ProcID, dist.Time) any { return out }
	}
	// everywhere answers out at every process, members or not.
	everywhere := func(out any) sim.History {
		return sim.HistoryFunc(func(dist.ProcID, dist.Time) any { return out })
	}

	n4 := dist.NewFailurePattern(4)
	crash4 := dist.CrashPattern(4, 4)
	s12, s123 := dist.NewProcSet(1, 2), dist.NewProcSet(1, 2, 3)
	a4 := dist.RangeSet(1, 4)
	n6 := dist.NewFailurePattern(6)
	lowOnly := dist.CrashPattern(6, 3, 4, 5, 6) // Correct = {1,2} = low half of a4
	single := func(p dist.ProcID, _ dist.Time) any { return fd.TrustList{Trusted: dist.NewProcSet(p)} }

	rows := []row{
		// Σ_S (Proposition 1).
		{"sigmaS/valid", func() []fd.Violation {
			return fd.CheckSigmaS(crash4, s123, fd.NewSigmaS(crash4, s123, 5), 20, 10)
		}, nil},
		{"sigmaS/wrong-type", func() []fd.Violation {
			return fd.CheckSigmaS(n4, s12, everywhere(SigmaOut{}), 20, 10)
		}, []fd.Violation{wf("H(p1,0) has type core.SigmaOut, want TrustList")}},
		{"sigmaS/bottom-at-member", sigmaS(n4, s12, at(2, 3, fd.TrustList{Trusted: s12}, fd.TrustList{Bottom: true})),
			[]fd.Violation{wf("p2 ∈ S outputs ⊥ at t=3")}},
		{"sigmaS/non-bottom-at-non-member", func() []fd.Violation {
			return fd.CheckSigmaS(n4, s12, everywhere(fd.TrustList{Trusted: s12}), 20, 10)
		}, []fd.Violation{wf("p3 ∉ S outputs {p1,p2}, want ⊥")}},
		{"sigmaS/empty-output", sigmaS(n4, s12, at(2, 4, fd.TrustList{Trusted: s12}, fd.TrustList{})),
			[]fd.Violation{in("H(p2,4) = ∅")}},
		{"sigmaS/completeness", sigmaS(crash4, s123, always(fd.TrustList{Trusted: a4})),
			[]fd.Violation{
				co("p1 still trusts a faulty process at t=19 (deadline 10)"),
				co("p2 still trusts a faulty process at t=19 (deadline 10)"),
				co("p3 still trusts a faulty process at t=19 (deadline 10)"),
			}},
		{"sigmaS/completeness-met", sigmaS(crash4, s123, at(0, 10, fd.TrustList{Trusted: a4}, fd.TrustList{Trusted: s123})), nil},
		{"sigmaS/disjoint-pairs", sigmaS(n4, a4, single), []fd.Violation{
			in("H(p1,0)={p1} ∩ H(p2,0)={p2} = ∅"),
			in("H(p1,0)={p1} ∩ H(p3,0)={p3} = ∅"),
			in("H(p1,0)={p1} ∩ H(p4,0)={p4} = ∅"),
			in("H(p2,0)={p2} ∩ H(p3,0)={p3} = ∅"),
			in("H(p2,0)={p2} ∩ H(p4,0)={p4} = ∅"),
			in("H(p3,0)={p3} ∩ H(p4,0)={p4} = ∅"),
		}},
		{"sigmaS/completeness-then-intersection", sigmaS(crash4, a4, func(p dist.ProcID, t dist.Time) any {
			if t < 12 {
				return fd.TrustList{Trusted: dist.NewProcSet(p, 4)}
			}
			return fd.TrustList{Trusted: dist.NewProcSet(p)}
		}), []fd.Violation{
			co("p1 still trusts a faulty process at t=11 (deadline 10)"),
			co("p2 still trusts a faulty process at t=11 (deadline 10)"),
			co("p3 still trusts a faulty process at t=11 (deadline 10)"),
			in("H(p1,0)={p1,p4} ∩ H(p2,12)={p2} = ∅"),
			in("H(p1,0)={p1,p4} ∩ H(p3,12)={p3} = ∅"),
			in("H(p1,12)={p1} ∩ H(p2,0)={p2,p4} = ∅"),
			in("H(p1,12)={p1} ∩ H(p2,12)={p2} = ∅"),
			in("H(p1,12)={p1} ∩ H(p3,0)={p3,p4} = ∅"),
			in("H(p1,12)={p1} ∩ H(p3,12)={p3} = ∅"),
			in("H(p1,12)={p1} ∩ H(p4,0)={p4} = ∅"),
			in("H(p2,0)={p2,p4} ∩ H(p3,12)={p3} = ∅"),
			in("H(p2,12)={p2} ∩ H(p3,0)={p3,p4} = ∅"),
			in("H(p2,12)={p2} ∩ H(p3,12)={p3} = ∅"),
			in("H(p2,12)={p2} ∩ H(p4,0)={p4} = ∅"),
			in("H(p3,12)={p3} ∩ H(p4,0)={p4} = ∅"),
		}},

		// σ (Definition 3).
		{"sigma/valid", func() []fd.Violation {
			o, err := NewSigmaOracle(crash4, s12, 5, SigmaCanonical)
			if err != nil {
				t.Fatal(err)
			}
			return CheckSigma(crash4, s12, o, 20, 10)
		}, nil},
		{"sigma/wrong-type", func() []fd.Violation {
			return CheckSigma(n4, s12, everywhere(fd.TrustList{}), 20, 10)
		}, []fd.Violation{wf("H(p1,0) has type fd.TrustList, want SigmaOut")}},
		{"sigma/bottom-at-member", sigma(n4, s12, at(2, 3, SigmaOut{Trusted: s12}, SigmaOut{Bottom: true})),
			[]fd.Violation{wf("p2 ∈ A outputs ⊥ at t=3")}},
		{"sigma/non-bottom-at-non-member", func() []fd.Violation {
			return CheckSigma(n4, s12, everywhere(SigmaOut{}), 20, 10)
		}, []fd.Violation{wf("p3 ∉ A outputs {}, want ⊥")}},
		{"sigma/trust-outside-A", sigma(n4, s12, at(1, 2, SigmaOut{Trusted: s12}, SigmaOut{Trusted: s123})),
			[]fd.Violation{wf("H(p1,2)={p1,p2,p3} ⊄ A={p1,p2}")}},
		{"sigma/empty-output-idle", sigma(n4, s12, always(SigmaOut{})), nil},
		{"sigma/completeness", sigma(dist.CrashPattern(4, 2), s12, always(SigmaOut{Trusted: s12})),
			[]fd.Violation{co("p1 still trusts a faulty process at t=19 (deadline 10)")}},
		{"sigma/non-triviality-any-member", sigma(dist.CrashPattern(4, 2, 3, 4), s12, always(SigmaOut{})),
			[]fd.Violation{
				nt("Correct ⊆ A but H(p1,19)=∅ after deadline 10"),
				nt("Correct ⊆ A but H(p2,19)=∅ after deadline 10"),
			}},
		{"sigma/non-triviality-met", sigma(dist.CrashPattern(4, 3, 4), s12, at(0, 10, SigmaOut{}, SigmaOut{Trusted: s12})), nil},
		{"sigma/disjoint-pair", sigma(n4, s12, func(p dist.ProcID, t dist.Time) any {
			if t < 5 {
				return SigmaOut{}
			}
			return SigmaOut{Trusted: dist.NewProcSet(3 - p)}
		}), []fd.Violation{in("H(p1,5)={p2} ∩ H(p2,5)={p1} = ∅")}},
		{"sigma/all-rules", sigma(dist.CrashPattern(4, 2, 3, 4), s12, func(p dist.ProcID, t dist.Time) any {
			switch {
			case t >= 15:
				return SigmaOut{}
			case p == 1:
				return SigmaOut{Trusted: s12}
			}
			return SigmaOut{Trusted: dist.NewProcSet(1)}
		}), []fd.Violation{
			co("p1 still trusts a faulty process at t=14 (deadline 10)"),
			nt("Correct ⊆ A but H(p1,19)=∅ after deadline 10"),
			nt("Correct ⊆ A but H(p2,19)=∅ after deadline 10"),
		}},

		// σₖ (Definition 9).
		{"sigmaK/valid", func() []fd.Violation {
			o, err := NewSigmaKOracle(lowOnly, a4, 5, SigmaKCanonical)
			if err != nil {
				t.Fatal(err)
			}
			return CheckSigmaK(lowOnly, a4, o, 20, 10)
		}, nil},
		{"sigmaK/wrong-type", func() []fd.Violation {
			return CheckSigmaK(n6, a4, everywhere(SigmaOut{}), 20, 10)
		}, []fd.Violation{wf("H(p1,0) has type core.SigmaOut, want SigmaKOut")}},
		{"sigmaK/bottom-at-member", sigmaK(n6, a4, at(3, 7, SigmaKOut{Active: a4}, SigmaKOut{Bottom: true})),
			[]fd.Violation{wf("p3 ∈ A outputs ⊥ at t=7")}},
		{"sigmaK/non-bottom-at-non-member", func() []fd.Violation {
			return CheckSigmaK(n6, a4, everywhere(SigmaKOut{Empty: true}), 20, 10)
		}, []fd.Violation{wf("p5 ∉ A outputs ∅, want ⊥")}},
		{"sigmaK/wrong-A", sigmaK(n6, a4, at(2, 1, SigmaKOut{Active: a4}, SigmaKOut{Trusted: dist.NewProcSet(1), Active: s123})),
			[]fd.Violation{wf("H(p2,1)=({p1},{p1,p2,p3}) not of form (X⊆A, A) for A={p1,p2,p3,p4}")}},
		{"sigmaK/trust-outside-A", sigmaK(n6, a4, at(4, 2, SigmaKOut{Active: a4}, SigmaKOut{Trusted: dist.NewProcSet(1, 5), Active: a4})),
			[]fd.Violation{wf("H(p4,2)=({p1,p5},{p1,p2,p3,p4}) not of form (X⊆A, A) for A={p1,p2,p3,p4}")}},
		{"sigmaK/empty-output-idle", sigmaK(n6, a4, always(SigmaKOut{Empty: true})), nil},
		{"sigmaK/completeness", sigmaK(dist.CrashPattern(6, 4), a4, always(SigmaKOut{Trusted: a4, Active: a4})),
			[]fd.Violation{
				co("p1 still trusts a faulty process at t=19 (deadline 10)"),
				co("p2 still trusts a faulty process at t=19 (deadline 10)"),
				co("p3 still trusts a faulty process at t=19 (deadline 10)"),
			}},
		{"sigmaK/non-triviality-correct-members", sigmaK(lowOnly, a4, func(p dist.ProcID, t dist.Time) any {
			if p == 2 {
				return SigmaKOut{Empty: true}
			}
			return SigmaKOut{Active: a4}
		}), []fd.Violation{
			nt("Correct inside one half of A but H(p1,19) carries no trust after deadline 10"),
			nt("Correct inside one half of A but H(p2,19) carries no trust after deadline 10"),
		}},
		{"sigmaK/non-triviality-met", sigmaK(lowOnly, a4, at(0, 10, SigmaKOut{Active: a4}, SigmaKOut{Trusted: s12, Active: a4})), nil},
		{"sigmaK/disjoint-pairs", sigmaK(n6, a4, func(p dist.ProcID, t dist.Time) any {
			if t < 3 {
				return SigmaKOut{Empty: true}
			}
			return SigmaKOut{Trusted: dist.NewProcSet(p), Active: a4}
		}), []fd.Violation{
			in("H(p1,3)=({p1},·) ∩ H(p2,3)=({p2},·) = ∅"),
			in("H(p1,3)=({p1},·) ∩ H(p3,3)=({p3},·) = ∅"),
			in("H(p1,3)=({p1},·) ∩ H(p4,3)=({p4},·) = ∅"),
			in("H(p2,3)=({p2},·) ∩ H(p3,3)=({p3},·) = ∅"),
			in("H(p2,3)=({p2},·) ∩ H(p4,3)=({p4},·) = ∅"),
			in("H(p3,3)=({p3},·) ∩ H(p4,3)=({p4},·) = ∅"),
		}},
		{"sigmaK/all-rules", sigmaK(dist.CrashPattern(6, 3, 4, 5, 6), a4, func(p dist.ProcID, t dist.Time) any {
			switch {
			case t >= 15:
				return SigmaKOut{Active: a4}
			case p == 1:
				return SigmaKOut{Trusted: dist.NewProcSet(1, 3), Active: a4}
			}
			return SigmaKOut{Trusted: dist.NewProcSet(4), Active: a4}
		}), []fd.Violation{
			co("p1 still trusts a faulty process at t=14 (deadline 10)"),
			nt("Correct inside one half of A but H(p1,19) carries no trust after deadline 10"),
			co("p2 still trusts a faulty process at t=14 (deadline 10)"),
			nt("Correct inside one half of A but H(p2,19) carries no trust after deadline 10"),
			in("H(p1,0)=({p1,p3},·) ∩ H(p2,0)=({p4},·) = ∅"),
		}},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			if got := r.check(); !slices.Equal(got, r.want) {
				t.Errorf("got  %s\nwant %s", fmtViolations(got), fmtViolations(r.want))
			}
		})
	}
}

func fmtViolations(vs []fd.Violation) string {
	s := fmt.Sprintf("%d violation(s)", len(vs))
	for _, v := range vs {
		s += fmt.Sprintf("\n  %s: %s", v.Property, v.Witness)
	}
	return s
}
