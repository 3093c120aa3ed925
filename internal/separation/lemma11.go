package separation

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Lemma11Config parameterizes the Lemma 11 construction: no algorithm
// emulates Σ_X₂ₖ from σ₂ₖ.
type Lemma11Config struct {
	// N is the system size (at most dist.MaxProcs). X is the 2k-process set whose Σ_X the candidate
	// claims to emulate; default {1..2k}.
	N, K int
	X    dist.ProcSet
	// Candidate is the emulation under refutation (outputs fd.TrustList).
	Candidate EmulatorProgram
	// Horizon bounds each run. Default 6000.
	Horizon int64
	// Seed drives the fair schedule portions.
	Seed int64
}

func (c *Lemma11Config) defaults() error {
	if c.N > dist.MaxProcs {
		return fmt.Errorf("separation: Lemma 11 needs n ≤ %d, got %d", dist.MaxProcs, c.N)
	}
	if c.K < 1 || 2*c.K > c.N {
		return fmt.Errorf("separation: need 1 ≤ k ≤ n/2, got n=%d k=%d", c.N, c.K)
	}
	if c.X.IsEmpty() {
		c.X = dist.RangeSet(1, dist.ProcID(2*c.K))
	}
	if c.X.Len() != 2*c.K {
		return fmt.Errorf("separation: |X|=%d, want 2k=%d", c.X.Len(), 2*c.K)
	}
	if c.Horizon <= 0 {
		c.Horizon = 6000
	}
	if c.Candidate == nil {
		return fmt.Errorf("separation: Lemma11Config.Candidate is required")
	}
	return nil
}

// Lemma11 executes the construction of Lemma 11 against a candidate
// emulation of Σ_X₂ₖ from σ₂ₖ.
//
// For n > 2k the construction mirrors Lemma 7 with the active set X and an
// auxiliary correct process outside X. For the special case n = 2k it uses
// the (∅, Π)-forever history: with one correct process in each half the
// history carries no failure information at all, so two disjoint "surviving
// pairs" produce disjoint outputs across indistinguishable prefixes.
func Lemma11(cfg Lemma11Config) (*Certificate, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	if cfg.N == 2*cfg.K {
		return lemma11Tight(cfg)
	}
	return lemma11General(cfg)
}

// lemma11General: n > 2k. Run r: p = min(X) and an auxiliary process outside
// X are correct; σ₂ₖ outputs (∅, X) forever. Completeness forces
// output_p ⊆ {p, aux}. Run r′: only q (another member of X) is correct, the
// prefix is replayed, σ₂ₖ switches to ({q}, X); Completeness forces
// output_q ⊆ {q}, disjoint from output_p — Intersection broken.
func lemma11General(cfg Lemma11Config) (*Certificate, error) {
	p := cfg.X.Min()
	q := cfg.X.Remove(p).Min()
	aux := dist.FullSet(cfg.N).Minus(cfg.X).Min()

	idle := core.SigmaKOut{Active: cfg.X} // (∅, X)
	histR := sim.HistoryFunc(func(id dist.ProcID, t dist.Time) any {
		if !cfg.X.Contains(id) {
			return core.SigmaKOut{Bottom: true}
		}
		return idle
	})

	fr := dist.NewFailurePattern(cfg.N)
	for id := dist.ProcID(1); int(id) <= cfg.N; id++ {
		if id != p && id != aux {
			fr.CrashAt(id, 0)
		}
	}
	target := dist.NewProcSet(p, aux)
	prog := func(id dist.ProcID, n int) sim.Automaton { return cfg.Candidate(id, n) }
	resR, err := sim.Run(sim.Config{
		Pattern:   fr,
		History:   histR,
		Program:   prog,
		Scheduler: sim.NewRandomScheduler(cfg.Seed),
		MaxSteps:  cfg.Horizon,
		StopWhen: func(s *sim.Snapshot) bool {
			return trustListWithin(s.EmuOutput(p), target)
		},
	})
	if err != nil {
		return nil, fmt.Errorf("separation: lemma 11 run r: %w", err)
	}
	if resR.Reason != sim.ReasonStopCond {
		return &Certificate{
			Lemma:    "Lemma 11",
			Property: "completeness",
			Detail: fmt.Sprintf("in run r (Correct={p%d,p%d}, σ₂ₖ idle) output_p%d never became ⊆ %v within %d steps",
				int(p), int(aux), int(p), target, cfg.Horizon),
		}, nil
	}
	t1 := dist.Time(resR.Ticks - 1)
	outP, _ := trace.OutputAt(resR.Trace, p, t1)

	fr2 := dist.NewFailurePattern(cfg.N)
	for id := dist.ProcID(1); int(id) <= cfg.N; id++ {
		switch id {
		case q:
		case p, aux:
			fr2.CrashAt(id, t1+1)
		default:
			fr2.CrashAt(id, 0)
		}
	}
	qSet := dist.NewProcSet(q)
	histR2 := sim.HistoryFunc(func(id dist.ProcID, t dist.Time) any {
		if !cfg.X.Contains(id) {
			return core.SigmaKOut{Bottom: true}
		}
		if t <= t1 {
			return idle
		}
		return core.SigmaKOut{Trusted: qSet, Active: cfg.X}
	})
	resR2, err := sim.Run(sim.Config{
		Pattern: fr2,
		History: histR2,
		Program: prog,
		Scheduler: &sim.ScriptedScheduler{
			Script: sim.ReplayScript(resR.Trace, t1),
			Then:   sim.NewRandomScheduler(cfg.Seed + 1),
		},
		MaxSteps: int64(t1) + 1 + cfg.Horizon,
		StopWhen: func(s *sim.Snapshot) bool {
			return s.Now() > t1 && trustListWithin(s.EmuOutput(q), qSet)
		},
	})
	if err != nil {
		return nil, fmt.Errorf("separation: lemma 11 run r': %w", err)
	}
	replayOK := trace.IndistinguishableTo(resR.Trace, resR2.Trace, p, -1) &&
		trace.IndistinguishableTo(resR.Trace, resR2.Trace, aux, -1)
	if resR2.Reason != sim.ReasonStopCond {
		return &Certificate{
			Lemma:          "Lemma 11",
			Property:       "completeness",
			ReplayVerified: replayOK,
			Detail: fmt.Sprintf("in run r′ (only p%d correct) output_p%d never became ⊆ {p%d} within %d steps",
				int(q), int(q), int(q), cfg.Horizon),
		}, nil
	}
	t2 := dist.Time(resR2.Ticks - 1)
	outQ, _ := trace.OutputAt(resR2.Trace, q, t2)
	return &Certificate{
		Lemma:          "Lemma 11",
		Property:       "intersection",
		ReplayVerified: replayOK,
		Detail: fmt.Sprintf("output_p%d(t₁=%d)=%v ∩ output_p%d(t₂=%d)=%v = ∅",
			int(p), int64(t1), outP, int(q), int64(t2), outQ),
	}, nil
}

// lemma11Tight: n = 2k. With one correct process per half, σₙ may output
// (∅, Π) forever. Run r keeps {low₁, high₁} correct; Completeness forces
// output_low₁ ⊆ {low₁, high₁}. Run r′ replays the prefix, crashes them, and
// keeps the disjoint straddling pair {low₂, high₂} correct under the same
// all-idle history — Completeness then forces an output disjoint from the
// first. The candidate cannot tell the two worlds apart because (∅, Π)
// carries no failure information.
func lemma11Tight(cfg Lemma11Config) (*Certificate, error) {
	if cfg.N < 4 {
		return nil, fmt.Errorf("separation: the n=2k case needs n ≥ 4, got %d", cfg.N)
	}
	low, high := core.Halves(cfg.X)
	l1, h1 := low.Min(), high.Min()
	l2, h2 := low.Remove(l1).Min(), high.Remove(h1).Min()

	idle := core.SigmaKOut{Active: cfg.X} // (∅, Π)
	hist := sim.HistoryFunc(func(id dist.ProcID, t dist.Time) any { return idle })

	fr := dist.NewFailurePattern(cfg.N)
	for id := dist.ProcID(1); int(id) <= cfg.N; id++ {
		if id != l1 && id != h1 {
			fr.CrashAt(id, 0)
		}
	}
	pair1 := dist.NewProcSet(l1, h1)
	prog := func(id dist.ProcID, n int) sim.Automaton { return cfg.Candidate(id, n) }
	resR, err := sim.Run(sim.Config{
		Pattern:   fr,
		History:   hist,
		Program:   prog,
		Scheduler: sim.NewRandomScheduler(cfg.Seed),
		MaxSteps:  cfg.Horizon,
		StopWhen: func(s *sim.Snapshot) bool {
			return trustListWithin(s.EmuOutput(l1), pair1)
		},
	})
	if err != nil {
		return nil, fmt.Errorf("separation: lemma 11 (n=2k) run r: %w", err)
	}
	if resR.Reason != sim.ReasonStopCond {
		return &Certificate{
			Lemma:    "Lemma 11 (n=2k)",
			Property: "completeness",
			Detail: fmt.Sprintf("in run r (Correct=%v, history (∅,Π)) output_p%d never became ⊆ %v within %d steps",
				pair1, int(l1), pair1, cfg.Horizon),
		}, nil
	}
	t1 := dist.Time(resR.Ticks - 1)
	out1, _ := trace.OutputAt(resR.Trace, l1, t1)

	fr2 := dist.NewFailurePattern(cfg.N)
	for id := dist.ProcID(1); int(id) <= cfg.N; id++ {
		switch id {
		case l2, h2:
		case l1, h1:
			fr2.CrashAt(id, t1+1)
		default:
			fr2.CrashAt(id, 0)
		}
	}
	pair2 := dist.NewProcSet(l2, h2)
	resR2, err := sim.Run(sim.Config{
		Pattern: fr2,
		History: hist,
		Program: prog,
		Scheduler: &sim.ScriptedScheduler{
			Script: sim.ReplayScript(resR.Trace, t1),
			Then:   sim.NewRandomScheduler(cfg.Seed + 1),
		},
		MaxSteps: int64(t1) + 1 + cfg.Horizon,
		StopWhen: func(s *sim.Snapshot) bool {
			return s.Now() > t1 && trustListWithin(s.EmuOutput(l2), pair2)
		},
	})
	if err != nil {
		return nil, fmt.Errorf("separation: lemma 11 (n=2k) run r': %w", err)
	}
	replayOK := trace.IndistinguishableTo(resR.Trace, resR2.Trace, l1, -1) &&
		trace.IndistinguishableTo(resR.Trace, resR2.Trace, h1, -1)
	if resR2.Reason != sim.ReasonStopCond {
		return &Certificate{
			Lemma:          "Lemma 11 (n=2k)",
			Property:       "completeness",
			ReplayVerified: replayOK,
			Detail: fmt.Sprintf("in run r′ (Correct=%v) output_p%d never became ⊆ %v within %d steps",
				pair2, int(l2), pair2, cfg.Horizon),
		}, nil
	}
	t2 := dist.Time(resR2.Ticks - 1)
	out2, _ := trace.OutputAt(resR2.Trace, l2, t2)
	return &Certificate{
		Lemma:          "Lemma 11 (n=2k)",
		Property:       "intersection",
		ReplayVerified: replayOK,
		Detail: fmt.Sprintf("output_p%d(t₁=%d)=%v ∩ output_p%d(t₂=%d)=%v = ∅",
			int(l1), int64(t1), out1, int(l2), int64(t2), out2),
	}, nil
}
