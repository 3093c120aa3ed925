package separation

import (
	"fmt"

	"repro/internal/agreement"
	"repro/internal/dist"
	"repro/internal/sim"
	"repro/internal/trace"
)

// AlgorithmProgram instantiates a candidate set-agreement algorithm (using
// anti-Ω, whose query answers are dist.ProcID values) at each process.
type AlgorithmProgram func(self dist.ProcID, n int, proposal agreement.Value) sim.Automaton

// Lemma15Config parameterizes the Lemma 15 construction: no algorithm
// implements set agreement with anti-Ω in message passing.
type Lemma15Config struct {
	// N is the system size, 2..dist.MaxProcs.
	N int
	// Candidate is the algorithm under refutation. Process pᵢ proposes the
	// distinct value agreement.DistinctProposals(N)[i−1].
	Candidate AlgorithmProgram
}

// lemma15SoloHorizon bounds each solo run rᵢ of Lemma 15.
const lemma15SoloHorizon = 2000

// Lemma15 executes the chain-of-runs construction of Lemma 15 against a
// candidate set-agreement algorithm that queries anti-Ω.
//
// For i = 1..n, run rᵢ crashes everyone but pᵢ at time 0 and lets pᵢ run
// solo (starting right after pᵢ₋₁'s decision time, with idle ticks aligning
// the clock); Termination forces pᵢ to decide, and — having heard from
// nobody — Validity forces it to decide its own proposal. The final run
// makes everyone correct, replays each solo segment back-to-back under the
// same rotating anti-Ω history (valid for the all-correct pattern because it
// stabilizes after the last segment), and delays every message past the last
// decision. Each pᵢ's observations are identical to rᵢ (verified by trace
// comparison), so all n proposals are decided: set agreement's bound of n−1
// distinct values is violated.
func Lemma15(cfg Lemma15Config) (*Certificate, error) {
	final, segments, cert, err := lemma15Runs(cfg)
	if cert != nil || err != nil {
		return cert, err
	}
	res, err := sim.Run(final)
	if err != nil {
		return nil, fmt.Errorf("separation: lemma 15 final run: %w", err)
	}
	n := cfg.N
	replayOK := true
	distinct := make(map[agreement.Value]bool, n)
	for i, seg := range segments {
		p := dist.ProcID(i + 1)
		replayOK = replayOK && trace.IndistinguishableTo(seg.trace, res.Trace, p, -1)
		d, ok := res.Decision(p)
		if !ok {
			return nil, fmt.Errorf("separation: lemma 15 final run: p%d did not decide during its replayed segment", int(p))
		}
		v, okv := d.(agreement.Value)
		if !okv || v != seg.decided {
			return nil, fmt.Errorf("separation: lemma 15 final run: p%d decided %v, expected replay of %v", int(p), d, seg.decided)
		}
		distinct[v] = true
	}
	return &Certificate{
		Lemma:          "Lemma 15",
		Property:       "agreement",
		ReplayVerified: replayOK,
		Detail: fmt.Sprintf("all %d processes are correct and decide their own proposals (%d distinct values > n−1 = %d)",
			n, len(distinct), n-1),
	}, nil
}

// lemma15Segment is one solo run rᵢ: its trace and the value its process
// decided.
type lemma15Segment struct {
	trace   *trace.Trace
	decided agreement.Value
}

// lemma15Runs validates cfg, executes the solo runs r₁..rₙ and returns the
// configuration of the final run that replays them back to back. A solo
// run in which the candidate already breaks termination or validity ends
// the construction early with that certificate instead.
func lemma15Runs(cfg Lemma15Config) (sim.Config, []lemma15Segment, *Certificate, error) {
	if cfg.N < 2 || cfg.N > dist.MaxProcs {
		return sim.Config{}, nil, nil, fmt.Errorf("separation: Lemma 15 needs 2 ≤ n ≤ %d, got %d", dist.MaxProcs, cfg.N)
	}
	if cfg.Candidate == nil {
		return sim.Config{}, nil, nil, fmt.Errorf("separation: Lemma15Config.Candidate is required")
	}
	n := cfg.N
	proposals := agreement.DistinctProposals(n)
	program := func(p dist.ProcID, nn int) sim.Automaton {
		return cfg.Candidate(p, nn, proposals[p-1])
	}

	// The rotating history used by every run: anti-Ω answers p₁, p₂, ... in
	// round-robin by absolute time. Any finite prefix of it is extendable to
	// a valid anti-Ω history for any pattern, and the final stitched history
	// (constant after the last segment) is valid for the all-correct run.
	rotating := func(t dist.Time) dist.ProcID {
		return dist.ProcID(1 + int(int64(t)%int64(n)))
	}

	segments := make([]lemma15Segment, 0, n)
	var finalScript []sim.Choice
	start := dist.Time(0)
	// sent counts the sends of r₁..rᵢ₋₁. Only pᵢ steps in segment i of the
	// final run and partitions neither drop nor duplicate, so pᵢ's sends
	// there are numbered after those, in rᵢ's order.
	var sent int64
	for i := 1; i <= n; i++ {
		pi := dist.ProcID(i)
		fi := dist.CrashPattern(n, dist.FullSet(n).Remove(pi).Members()...)
		// Solo history for rᵢ: rotate during the run (it only matters what
		// pᵢ sees while it runs; the suffix is irrelevant once it decided).
		hist := sim.HistoryFunc(func(id dist.ProcID, t dist.Time) any { return rotating(t) })
		script := append(sim.Idle(int64(start)), sim.Steps(sim.DeliverAuto, lemma15SoloHorizon, pi)...)
		res, err := sim.Run(sim.Config{
			Pattern:         fi,
			History:         hist,
			Program:         program,
			Scheduler:       &sim.ScriptedScheduler{Script: script},
			MaxSteps:        int64(start) + lemma15SoloHorizon,
			StopWhenDecided: true,
		})
		if err != nil {
			return sim.Config{}, nil, nil, fmt.Errorf("separation: lemma 15 run r%d: %w", i, err)
		}
		decided, ok := res.Decision(pi)
		if !ok {
			return sim.Config{}, nil, &Certificate{
				Lemma:    "Lemma 15",
				Property: "termination",
				Detail: fmt.Sprintf("in run r%d (only p%d correct, rotating anti-Ω) p%d never decided within %d steps",
					i, i, i, lemma15SoloHorizon),
			}, nil
		}
		val, isVal := decided.(agreement.Value)
		if !isVal || val != proposals[i-1] {
			return sim.Config{}, nil, &Certificate{
				Lemma:    "Lemma 15",
				Property: "validity",
				Detail: fmt.Sprintf("in run r%d process p%d decided %v without receiving any message; only its own proposal %d is valid",
					i, i, decided, int64(proposals[i-1])),
			}, nil
		}
		end := res.DecideTime[pi]
		segments = append(segments, lemma15Segment{trace: res.Trace, decided: val})
		finalScript = append(finalScript, sim.ReplayScript(res.Trace, end, sent)[start:]...)
		sent += res.MessagesSent
		start = end + 1
	}
	lastDecision := start - 1 // rₙ's decision time

	// Final run: everyone correct, segments replayed back-to-back, all
	// messages delayed past the last decision, history stitched: rotating
	// during the segments, constant p1 afterwards (so p2..pn are returned
	// finitely often — valid anti-Ω for the all-correct pattern).
	finalHist := sim.HistoryFunc(func(id dist.ProcID, t dist.Time) any {
		if t <= lastDecision {
			return rotating(t)
		}
		return dist.ProcID(1)
	})
	// "Messages sent by pᵢ are delayed after time tₙ": one partition per
	// process cuts {pᵢ} from Π∖{pᵢ} through the last decision. A partition
	// never separates a process from itself, so self-addressed messages are
	// local and stay deliverable, as they were in pᵢ's solo run.
	cuts := make([]dist.Partition, n)
	for i := range cuts {
		p := dist.ProcID(i + 1)
		cuts[i] = dist.Partition{A: dist.NewProcSet(p), B: dist.FullSet(n).Remove(p), Until: lastDecision + 1}
	}
	return sim.Config{
		Pattern:   dist.NewFailurePattern(n),
		History:   finalHist,
		Program:   program,
		Scheduler: &sim.ScriptedScheduler{Script: finalScript},
		MaxSteps:  int64(lastDecision) + 1,
		Faults:    &sim.FaultPlan{Partitions: cuts},
	}, segments, nil, nil
}
