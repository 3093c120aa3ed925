package separation

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/fd"
	"repro/internal/sim"
	"repro/internal/trace"
)

// twoRun is the Intersection construction behind Lemmas 7 and 11.
//
// Run r: the processes of first are correct, the rest crash at time 0, and
// the oracle follows history. It stops at the first time t₁ at which
// Completeness has driven output_p inside first.
//
// Run r′: r's schedule is replayed up to t₁; then only second stays
// correct (first crashes at t₁+1, the rest at 0) and the oracle follows
// history up to t₁ and after from then on. It stops at the first time
// t₂ > t₁ at which output_q lies inside second.
//
// Every process of first must see the same local view in both runs, and
// output_p(t₁) must be the same in both (the replay check), so it is an
// output of r′ too; since first and second are disjoint, it and
// output_q(t₂) break Intersection.
type twoRun struct {
	lemma     string // names the construction in errors
	n         int
	candidate EmulatorProgram
	horizon   int64
	seed      int64

	first   dist.ProcSet // correct in r
	p       dist.ProcID  // watched in r
	history sim.History  // r's history, and r′'s up to t₁
	second  dist.ProcSet // correct in r′
	q       dist.ProcID  // watched in r′
	after   sim.History  // r′'s history after t₁
}

// twoRunOutcome says how far the construction got.
type twoRunOutcome uint8

const (
	stuckInR  twoRunOutcome = iota + 1 // output_p never entered first in r
	stuckInR2                          // output_q never entered second in r′
	disjoint                           // both entered: t₁, t₂ and the outputs are set
)

type twoRunResult struct {
	outcome  twoRunOutcome
	replayOK bool // every process of first saw the same local view in r and r′, and output_p(t₁) agrees
	t1, t2   dist.Time
	outP     any // output_p(t₁) in r
	outQ     any // output_q(t₂) in r′
	outPr2   any // output_p(t₁) in r′
}

func (c *twoRun) validate() error {
	switch {
	case c.first.IsEmpty() || c.second.IsEmpty():
		return fmt.Errorf("correct sets %v (r) and %v (r′) must be non-empty", c.first, c.second)
	case c.first.Intersects(c.second):
		return fmt.Errorf("correct sets %v (r) and %v (r′) overlap", c.first, c.second)
	case !c.first.Union(c.second).SubsetOf(dist.FullSet(c.n)):
		return fmt.Errorf("correct sets %v (r) and %v (r′) are not inside Π=%v", c.first, c.second, dist.FullSet(c.n))
	case !c.first.Contains(c.p) || !c.second.Contains(c.q):
		return fmt.Errorf("watched processes p%d ∈ %v (r) and p%d ∈ %v (r′) must lie in their sets", int(c.p), c.first, int(c.q), c.second)
	}
	return nil
}

func (c *twoRun) run() (twoRunResult, error) {
	if err := c.validate(); err != nil {
		return twoRunResult{}, fmt.Errorf("separation: %s: %w", c.lemma, err)
	}
	prog := func(id dist.ProcID, n int) sim.Automaton { return c.candidate(id, n) }

	fr := dist.NewFailurePattern(c.n)
	for id := dist.ProcID(1); int(id) <= c.n; id++ {
		if !c.first.Contains(id) {
			fr.CrashAt(id, 0)
		}
	}
	resR, err := sim.Run(sim.Config{
		Pattern:   fr,
		History:   c.history,
		Program:   prog,
		Scheduler: sim.NewRandomScheduler(c.seed),
		MaxSteps:  c.horizon,
		StopWhen: func(s *sim.Snapshot) bool {
			return trustListWithin(s.EmuOutput(c.p), c.first)
		},
	})
	if err != nil {
		return twoRunResult{}, fmt.Errorf("separation: %s: run r: %w", c.lemma, err)
	}
	if resR.Reason != sim.ReasonStopCond {
		return twoRunResult{outcome: stuckInR}, nil
	}
	t1 := dist.Time(resR.Ticks - 1) // the step at which the condition held

	fr2 := dist.NewFailurePattern(c.n)
	for id := dist.ProcID(1); int(id) <= c.n; id++ {
		switch {
		case c.second.Contains(id):
		case c.first.Contains(id):
			fr2.CrashAt(id, t1+1)
		default:
			fr2.CrashAt(id, 0)
		}
	}
	resR2, err := sim.Run(sim.Config{
		Pattern: fr2,
		History: sim.HistoryFunc(func(id dist.ProcID, t dist.Time) any {
			if t <= t1 {
				return c.history.Output(id, t)
			}
			return c.after.Output(id, t)
		}),
		Program: prog,
		Scheduler: &sim.ScriptedScheduler{
			Script: sim.ReplayScript(resR.Trace, t1, 0),
			Then:   sim.NewRandomScheduler(c.seed + 1),
		},
		MaxSteps: int64(t1) + 1 + c.horizon,
		StopWhen: func(s *sim.Snapshot) bool {
			return s.Now() > t1 && trustListWithin(s.EmuOutput(c.q), c.second)
		},
	})
	if err != nil {
		return twoRunResult{}, fmt.Errorf("separation: %s: run r′: %w", c.lemma, err)
	}
	res := twoRunResult{outcome: stuckInR2, replayOK: c.first.AllSatisfy(func(id dist.ProcID) bool {
		return trace.IndistinguishableTo(resR.Trace, resR2.Trace, id, -1)
	})}
	if resR2.Reason != sim.ReasonStopCond {
		return res, nil
	}
	res.outcome, res.t1, res.t2 = disjoint, t1, dist.Time(resR2.Ticks-1)
	res.outP, _ = trace.OutputAt(resR.Trace, c.p, t1)
	res.outQ, _ = trace.OutputAt(resR2.Trace, c.q, res.t2)
	res.outPr2, _ = trace.OutputAt(resR2.Trace, c.p, t1)
	res.replayOK = res.replayOK && sameTrust(res.outP, res.outPr2)
	return res, nil
}

// sameTrust reports whether two emulated outputs are the same TrustList.
func sameTrust(a, b any) bool {
	x, okx := a.(fd.TrustList)
	y, oky := b.(fd.TrustList)
	return okx && oky && x == y
}
