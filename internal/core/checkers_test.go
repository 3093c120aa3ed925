package core

import (
	"slices"
	"testing"

	"repro/internal/dist"
	"repro/internal/sim"
)

// Negative tests: the Definition 3 / Definition 9 checkers must reject
// histories violating each property. Without these, a checker that accepts
// everything would make every positive experiment vacuous.

func TestCheckSigmaRejectsBottomInsideA(t *testing.T) {
	f := dist.NewFailurePattern(3)
	a := dist.NewProcSet(1, 2)
	bad := sim.HistoryFunc(func(p dist.ProcID, tm dist.Time) any {
		return SigmaOut{Bottom: true} // ⊥ even at actives
	})
	vs := CheckSigma(f, a, bad, 20, 10)
	if len(vs) == 0 || vs[0].Property != "well-formedness" {
		t.Fatalf("got %v", vs)
	}
}

func TestCheckSigmaRejectsOutsideA(t *testing.T) {
	f := dist.NewFailurePattern(3)
	a := dist.NewProcSet(1, 2)
	bad := sim.HistoryFunc(func(p dist.ProcID, tm dist.Time) any {
		if a.Contains(p) {
			return SigmaOut{Trusted: dist.NewProcSet(1, 3)} // p3 ∉ A
		}
		return SigmaOut{Bottom: true}
	})
	vs := CheckSigma(f, a, bad, 20, 10)
	if len(vs) == 0 || vs[0].Property != "well-formedness" {
		t.Fatalf("got %v", vs)
	}
}

func TestCheckSigmaRejectsDisjointNonEmpty(t *testing.T) {
	// Fact 5's precondition: H(p)={p} and H(q)={q} must never coexist.
	f := dist.NewFailurePattern(3)
	a := dist.NewProcSet(1, 2)
	bad := sim.HistoryFunc(func(p dist.ProcID, tm dist.Time) any {
		if a.Contains(p) {
			return SigmaOut{Trusted: dist.NewProcSet(p)}
		}
		return SigmaOut{Bottom: true}
	})
	found := false
	for _, v := range CheckSigma(f, a, bad, 20, 10) {
		if v.Property == "intersection" {
			found = true
		}
	}
	if !found {
		t.Fatal("disjoint singleton outputs accepted")
	}
}

// TestCheckSigmaWitnessOrderIsStable: the one {p1} vs {p2} witness names
// p1's output first on every call, not in map order.
func TestCheckSigmaWitnessOrderIsStable(t *testing.T) {
	f := dist.NewFailurePattern(3)
	a := dist.NewProcSet(1, 2)
	bad := sim.HistoryFunc(func(p dist.ProcID, tm dist.Time) any {
		if a.Contains(p) {
			return SigmaOut{Trusted: dist.NewProcSet(p)}
		}
		return SigmaOut{Bottom: true}
	})
	first := CheckSigma(f, a, bad, 20, 10)
	if len(first) != 1 || first[0].Witness != "H(p1,0)={p1} ∩ H(p2,0)={p2} = ∅" {
		t.Fatalf("got %v, want the one p1 vs p2 witness", first)
	}
	for i := 0; i < 100; i++ {
		if got := CheckSigma(f, a, bad, 20, 10); !slices.Equal(got, first) {
			t.Fatalf("call %d: %v, first call: %v", i, got, first)
		}
	}
}

func TestCheckSigmaRejectsIncompleteness(t *testing.T) {
	f := dist.CrashPattern(3, 2) // p2 ∈ A crashed
	a := dist.NewProcSet(1, 2)
	bad := sim.HistoryFunc(func(p dist.ProcID, tm dist.Time) any {
		if a.Contains(p) {
			return SigmaOut{Trusted: a} // p1 trusts the dead p2 forever
		}
		return SigmaOut{Bottom: true}
	})
	found := false
	for _, v := range CheckSigma(f, a, bad, 40, 20) {
		if v.Property == "completeness" {
			found = true
		}
	}
	if !found {
		t.Fatal("incomplete history accepted")
	}
}

func TestCheckSigmaRejectsNonTriviality(t *testing.T) {
	f := dist.CrashPattern(4, 3, 4) // Correct = {1,2} = A
	a := dist.NewProcSet(1, 2)
	bad := sim.HistoryFunc(func(p dist.ProcID, tm dist.Time) any {
		if a.Contains(p) {
			return SigmaOut{} // ∅ forever although Correct ⊆ A
		}
		return SigmaOut{Bottom: true}
	})
	found := false
	for _, v := range CheckSigma(f, a, bad, 40, 20) {
		if v.Property == "non-triviality" {
			found = true
		}
	}
	if !found {
		t.Fatal("silent history accepted despite Correct ⊆ A")
	}
}

func TestCheckSigmaKRejectsWrongActiveSet(t *testing.T) {
	f := dist.NewFailurePattern(6)
	a := dist.RangeSet(1, 4)
	bad := sim.HistoryFunc(func(p dist.ProcID, tm dist.Time) any {
		if a.Contains(p) {
			return SigmaKOut{Trusted: dist.NewProcSet(1), Active: dist.RangeSet(1, 3)} // |A|, content wrong
		}
		return SigmaKOut{Bottom: true}
	})
	vs := CheckSigmaK(f, a, bad, 20, 10)
	if len(vs) == 0 || vs[0].Property != "well-formedness" {
		t.Fatalf("got %v", vs)
	}
}

func TestCheckSigmaKRejectsDisjointTrust(t *testing.T) {
	f := dist.NewFailurePattern(6)
	a := dist.RangeSet(1, 4)
	low, high := Halves(a)
	bad := sim.HistoryFunc(func(p dist.ProcID, tm dist.Time) any {
		if !a.Contains(p) {
			return SigmaKOut{Bottom: true}
		}
		if low.Contains(p) {
			return SigmaKOut{Trusted: low, Active: a}
		}
		return SigmaKOut{Trusted: high, Active: a} // low vs high: disjoint
	})
	found := false
	for _, v := range CheckSigmaK(f, a, bad, 20, 10) {
		if v.Property == "intersection" {
			found = true
		}
	}
	if !found {
		t.Fatal("disjoint (X,A) trust sets accepted")
	}
}

// TestCheckSigmaKWitnessOrderIsStable: with four singleton trust sets the
// witnesses are listed in first-output order on every call.
func TestCheckSigmaKWitnessOrderIsStable(t *testing.T) {
	f := dist.NewFailurePattern(4)
	a := dist.RangeSet(1, 4)
	bad := sim.HistoryFunc(func(p dist.ProcID, tm dist.Time) any {
		return SigmaKOut{Trusted: dist.NewProcSet(p), Active: a}
	})
	first := CheckSigmaK(f, a, bad, 20, 10)
	if len(first) != 6 || first[0].Witness != "H(p1,0)=({p1},·) ∩ H(p2,0)=({p2},·) = ∅" {
		t.Fatalf("got %v, want the six pairs starting with p1 vs p2", first)
	}
	for i := 0; i < 100; i++ {
		if got := CheckSigmaK(f, a, bad, 20, 10); !slices.Equal(got, first) {
			t.Fatalf("call %d: %v, first call: %v", i, got, first)
		}
	}
}

func TestCheckSigmaKRejectsNonTriviality(t *testing.T) {
	f := dist.CrashPattern(6, 3, 4, 5, 6) // Correct = {1,2} = low half
	a := dist.RangeSet(1, 4)
	bad := sim.HistoryFunc(func(p dist.ProcID, tm dist.Time) any {
		if a.Contains(p) {
			return SigmaKOut{Active: a} // (∅, A) forever
		}
		return SigmaKOut{Bottom: true}
	})
	found := false
	for _, v := range CheckSigmaK(f, a, bad, 40, 20) {
		if v.Property == "non-triviality" {
			found = true
		}
	}
	if !found {
		t.Fatal("no-information history accepted despite Correct inside a half")
	}
}

func TestHalves(t *testing.T) {
	low, high := Halves(dist.NewProcSet(2, 3, 5, 8))
	if low != dist.NewProcSet(2, 3) || high != dist.NewProcSet(5, 8) {
		t.Fatalf("Halves = %v / %v", low, high)
	}
	// Odd-size set: ⌊k/2⌋ smallest.
	low, high = Halves(dist.NewProcSet(1, 4, 9))
	if low != dist.NewProcSet(1) || high != dist.NewProcSet(4, 9) {
		t.Fatalf("Halves = %v / %v", low, high)
	}
}

func TestSigmaOutStrings(t *testing.T) {
	if got := (SigmaOut{Bottom: true}).String(); got != "⊥" {
		t.Fatalf("got %q", got)
	}
	if got := (SigmaKOut{Empty: true}).String(); got != "∅" {
		t.Fatalf("got %q", got)
	}
	out := SigmaKOut{Trusted: dist.NewProcSet(1), Active: dist.NewProcSet(1, 2)}
	if got := out.String(); got != "({p1},{p1,p2})" {
		t.Fatalf("got %q", got)
	}
}

func TestSigmaKOutAccessors(t *testing.T) {
	a := dist.NewProcSet(1, 2, 3, 4)
	pair := SigmaKOut{Trusted: dist.NewProcSet(2), Active: a}
	if pair.ActivePart() != a || pair.TrustPart() != dist.NewProcSet(2) {
		t.Fatal("pair accessors wrong")
	}
	empty := SigmaKOut{Empty: true}
	if !empty.ActivePart().IsEmpty() || !empty.TrustPart().IsEmpty() {
		t.Fatal("∅ accessors must be empty")
	}
	bottom := SigmaKOut{Bottom: true}
	if !bottom.ActivePart().IsEmpty() || !bottom.TrustPart().IsEmpty() {
		t.Fatal("⊥ accessors must be empty")
	}
}
