package core

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/dist"
	"repro/internal/fd"
	"repro/internal/sim"
)

// TestFact5OnOracles verifies the paper's Fact 5 as a property of every σ
// oracle this repository produces: "if at some time t process q₀ gets
// H(q₀,t) = {q₀}, then at all times t′, q₁ gets H(q₁,t′) ≠ {q₁}". Fact 5 is
// the hinge of both the Validity and the Agreement arguments of Theorem 4,
// so the oracles must never break it.
func TestFact5OnOracles(t *testing.T) {
	pair := dist.NewProcSet(1, 2)
	check := func(h sim.History, f *dist.FailurePattern) error {
		const horizon = 200
		saw := map[dist.ProcID]bool{}
		for _, q := range pair.Members() {
			for tm := dist.Time(0); tm < horizon; tm++ {
				out, ok := h.Output(q, tm).(SigmaOut)
				if !ok || out.Bottom {
					return fmt.Errorf("bad output at p%d", int(q))
				}
				if out.Trusted == dist.NewProcSet(q) {
					saw[q] = true
				}
			}
		}
		if saw[1] && saw[2] {
			return fmt.Errorf("Fact 5 violated: both actives saw their own singleton")
		}
		return nil
	}

	prop := func(raw []uint8, seed int64) bool {
		f := randomPattern(4, raw)
		can, err := NewSigmaOracle(f, pair, 20, SigmaCanonical)
		if err != nil || check(can, f) != nil {
			return false
		}
		anc, err := NewAnchoredSigma(f, pair, 20, seed)
		if err != nil || check(anc, f) != nil {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestFig3ExhaustiveWellFormedness exhaustively verifies the Figure 3
// emulation invariants over every interleaving of a small configuration:
// outputs at pair members are always subsets of the pair, outputs elsewhere
// are always ⊥, and the two members' non-empty outputs always intersect
// (the state-level core of Lemma 6).
func TestFig3ExhaustiveWellFormedness(t *testing.T) {
	const n = 3
	pair := dist.NewProcSet(1, 2)
	f := dist.CrashPattern(n, 3)
	res, err := sim.Explore(sim.ExploreConfig{
		Pattern:  f,
		History:  fd.NewSigmaS(f, pair, 4), // stabilizes at 4: pre-stab states explored too
		Program:  fig3SnapshotProgram(pair),
		MaxDepth: 12,
		TimeCap:  4,
		Check:    func(map[dist.ProcID]any) string { return "" },
		CheckAutomata: func(automata []sim.Automaton) string {
			outs := make([]SigmaOut, 0, 2)
			for i, a := range automata {
				emu, ok := a.(sim.Emulator)
				if !ok {
					return fmt.Sprintf("automaton %d is not an emulator", i)
				}
				out, ok := emu.Output().(SigmaOut)
				if !ok {
					return fmt.Sprintf("p%d output is not SigmaOut", i+1)
				}
				p := dist.ProcID(i + 1)
				if !pair.Contains(p) {
					if !out.Bottom {
						return fmt.Sprintf("p%d ∉ pair outputs %v", int(p), out)
					}
					continue
				}
				if out.Bottom || !out.Trusted.SubsetOf(pair) {
					return fmt.Sprintf("p%d outputs ill-formed %v", int(p), out)
				}
				outs = append(outs, out)
			}
			if len(outs) == 2 && !outs[0].Trusted.IsEmpty() && !outs[1].Trusted.IsEmpty() &&
				!outs[0].Trusted.Intersects(outs[1].Trusted) {
				return fmt.Sprintf("intersection broken: %v vs %v", outs[0], outs[1])
			}
			return ""
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != "" {
		t.Fatalf("%s (depth %d)", res.Violation, res.ViolationDepth)
	}
	checkCounts(t, f, res, exploreCounts{12, 24, false})
}

// fig3Snapshot wraps Fig3 with a Snapshot method for exploration.
type fig3Snapshot struct{ Fig3 }

func (a *fig3Snapshot) Snapshot() sim.Automaton {
	cp := *a
	return &cp
}

func fig3SnapshotProgram(pair dist.ProcSet) sim.Program {
	return func(p dist.ProcID, n int) sim.Automaton {
		return &fig3Snapshot{Fig3: *NewFig3(p, pair)}
	}
}
