package separation

import (
	"fmt"
	"reflect"

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
	// Candidate is the algorithm under refutation.
	Candidate AlgorithmProgram
	// Proposals are the initial values (default DistinctProposals).
	Proposals []agreement.Value
	// SegmentHorizon bounds each solo run rᵢ. Default 2000.
	SegmentHorizon int64
}

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
	if cfg.N < 2 || cfg.N > dist.MaxProcs {
		return nil, fmt.Errorf("separation: Lemma 15 needs 2 ≤ n ≤ %d, got %d", dist.MaxProcs, cfg.N)
	}
	if cfg.Candidate == nil {
		return nil, fmt.Errorf("separation: Lemma15Config.Candidate is required")
	}
	if cfg.Proposals == nil {
		cfg.Proposals = agreement.DistinctProposals(cfg.N)
	}
	if cfg.SegmentHorizon <= 0 {
		cfg.SegmentHorizon = 2000
	}
	n := cfg.N

	// The rotating history used by every run: anti-Ω answers p₁, p₂, ... in
	// round-robin by absolute time. Any finite prefix of it is extendable to
	// a valid anti-Ω history for any pattern, and the final stitched history
	// (constant after the last segment) is valid for the all-correct run.
	rotating := func(t dist.Time) dist.ProcID {
		return dist.ProcID(1 + int(int64(t)%int64(n)))
	}

	type segment struct {
		start, end dist.Time
		trace      *trace.Trace
		decided    agreement.Value
	}
	segments := make([]segment, 0, n)
	start := dist.Time(0)

	for i := 1; i <= n; i++ {
		pi := dist.ProcID(i)
		fi := dist.NewFailurePattern(n)
		for id := dist.ProcID(1); int(id) <= n; id++ {
			if id != pi {
				fi.CrashAt(id, 0)
			}
		}
		// Solo history for rᵢ: rotate during the run (it only matters what
		// pᵢ sees while it runs; the suffix is irrelevant once it decided).
		hist := sim.HistoryFunc(func(id dist.ProcID, t dist.Time) any { return rotating(t) })
		script := append(sim.Idle(int64(start)), sim.Steps(sim.DeliverAuto, int(cfg.SegmentHorizon), pi)...)
		res, err := sim.Run(sim.Config{
			Pattern:         fi,
			History:         hist,
			Program:         soloProgram(cfg, pi),
			Scheduler:       &sim.ScriptedScheduler{Script: script},
			MaxSteps:        int64(start) + cfg.SegmentHorizon,
			StopWhenDecided: true,
		})
		if err != nil {
			return nil, fmt.Errorf("separation: lemma 15 run r%d: %w", i, err)
		}
		decided, ok := res.Decision(pi)
		if !ok {
			return &Certificate{
				Lemma:    "Lemma 15",
				Property: "termination",
				Detail: fmt.Sprintf("in run r%d (only p%d correct, rotating anti-Ω) p%d never decided within %d steps",
					i, i, i, cfg.SegmentHorizon),
			}, nil
		}
		val, isVal := decided.(agreement.Value)
		if !isVal || val != cfg.Proposals[i-1] {
			return &Certificate{
				Lemma:    "Lemma 15",
				Property: "validity",
				Detail: fmt.Sprintf("in run r%d process p%d decided %v without receiving any message; only its own proposal %d is valid",
					i, i, decided, int64(cfg.Proposals[i-1])),
			}, nil
		}
		end := res.DecideTime[pi]
		segments = append(segments, segment{start: start, end: end, trace: res.Trace, decided: val})
		start = end + 1
	}
	lastDecision := segments[len(segments)-1].end

	// Final run: everyone correct, segments replayed back-to-back, all
	// messages delayed past the last decision, history stitched: rotating
	// during the segments, constant p1 afterwards (so p2..pn are returned
	// finitely often — valid anti-Ω for the all-correct pattern).
	fAll := dist.NewFailurePattern(n)
	finalHist := sim.HistoryFunc(func(id dist.ProcID, t dist.Time) any {
		if t <= lastDecision {
			return rotating(t)
		}
		return dist.ProcID(1)
	})
	var finalScript []sim.Choice
	for _, seg := range segments {
		finalScript = append(finalScript, sim.ReplayScript(seg.trace, seg.end)[seg.start:]...)
	}
	res, err := sim.Run(sim.Config{
		Pattern: fAll,
		History: finalHist,
		Program: func(p dist.ProcID, nn int) sim.Automaton {
			return cfg.Candidate(p, nn, cfg.Proposals[p-1])
		},
		Scheduler: &sim.ScriptedScheduler{Script: finalScript},
		MaxSteps:  int64(lastDecision) + 1,
		DeliveryFilter: func(m *sim.Message, now dist.Time) bool {
			// "Messages sent by pᵢ are delayed after time tₙ" — self-
			// addressed messages are local and flow normally, so replay
			// stays exact for candidates that message themselves.
			return m.From == m.To || now > lastDecision
		},
	})
	if err != nil {
		return nil, fmt.Errorf("separation: lemma 15 final run: %w", err)
	}

	replayOK := true
	for i := 1; i <= n; i++ {
		if !trace.IndistinguishableTo(segments[i-1].trace, res.Trace, dist.ProcID(i), -1) {
			replayOK = false
		}
	}
	distinct := make(map[agreement.Value]bool, n)
	for p := dist.ProcID(1); int(p) <= n; p++ {
		d, ok := res.Decision(p)
		if !ok {
			return nil, fmt.Errorf("separation: lemma 15 final run: p%d did not decide during its replayed segment", int(p))
		}
		v, okv := d.(agreement.Value)
		if !okv || !reflect.DeepEqual(d, segments[p-1].decided) {
			return nil, fmt.Errorf("separation: lemma 15 final run: p%d decided %v, expected replay of %v", int(p), d, segments[p-1].decided)
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

// soloProgram instantiates the candidate only at the solo process; everyone
// else is crashed from time 0 and never steps, so their automata are inert
// placeholders.
func soloProgram(cfg Lemma15Config, solo dist.ProcID) sim.Program {
	return func(p dist.ProcID, n int) sim.Automaton {
		return cfg.Candidate(p, n, cfg.Proposals[p-1])
	}
}
