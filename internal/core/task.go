package core

import (
	"cmp"
	"errors"
	"fmt"

	"repro/internal/agreement"
	"repro/internal/dist"
	"repro/internal/fd"
	"repro/internal/sim"
)

// Task is one of the paper's σ-side routes to set agreement.
type Task int

const (
	TaskFig2  Task = iota + 1 // Figure 2 over σ
	TaskFig4                  // Figure 4 over σ₂ₖ
	TaskStack                 // Figure 4 over the σ₂ₖ that Figure 5 emulates from Σ_X
)

var taskNames = [...]string{TaskFig2: "Figure 2", TaskFig4: "Figure 4", TaskStack: "Figure 5 ∘ Figure 4"}

func (t Task) String() string {
	if t < TaskFig2 || t > TaskStack {
		return fmt.Sprintf("Task(%d)", int(t))
	}
	return taskNames[t]
}

// proposals is every σ task's proposal table, of which a run on n processes
// uses the first n entries. It is never written.
var proposals = agreement.DistinctProposals(dist.MaxProcs)

// TaskConfig is the one definition of a σ-task run: the active set (for
// TaskStack, X) is {p1..p2k}, and the task is (n−k)-set agreement on
// distinct proposals.
type TaskConfig struct {
	Task    Task
	Pattern *dist.FailurePattern
	// K sizes the active set, 1 ≤ k ≤ n/2. Figure 2 is the k = 1 task and
	// takes K 0 or 1.
	K int
	// Stab is the oracle's stabilization time; 0 defaults to 20.
	Stab dist.Time
}

func (c TaskConfig) k() int { return max(c.K, 1) }

// Active returns the active set {p1..p2k}.
func (c TaskConfig) Active() dist.ProcSet { return dist.RangeSet(1, dist.ProcID(2*c.k())) }

// SetK returns n−k: the run solves (n−k)-set agreement.
func (c TaskConfig) SetK() int { return c.Pattern.N() - c.k() }

// Proposals returns the proposals, indexed ProcID-1. They must not be written.
func (c TaskConfig) Proposals() []agreement.Value {
	n := c.Pattern.N()
	return proposals[:n:n]
}

// SimConfig returns the run, validated: the task's oracle and program and a
// stop once every correct process decided. It is untraced and has no
// Scheduler (a runner then owns a seeded one). It is read-only, so it
// serves many runners at once.
func (c TaskConfig) SimConfig() (sim.Config, error) {
	switch {
	case c.Pattern == nil:
		return sim.Config{}, errors.New("core: TaskConfig.Pattern is required")
	case c.Task < TaskFig2 || c.Task > TaskStack:
		return sim.Config{}, fmt.Errorf("core: unknown TaskConfig.Task %v", c.Task)
	case c.Task == TaskFig2 && (c.K < 0 || c.K > 1):
		return sim.Config{}, fmt.Errorf("core: %v is the k = 1 task (K 0 or 1), got K=%d", c.Task, c.K)
	case c.Task != TaskFig2 && c.K < 1:
		return sim.Config{}, fmt.Errorf("core: %v needs k ≥ 1, got k=%d", c.Task, c.K)
	case 2*c.k() > c.Pattern.N():
		return sim.Config{}, fmt.Errorf("core: %v needs 2k ≤ n for its active set {p1..p2k}, got k=%d n=%d", c.Task, c.k(), c.Pattern.N())
	}
	f, a, props, stab := c.Pattern, c.Active(), c.Proposals(), cmp.Or(c.Stab, 20)
	cfg := sim.Config{Pattern: f, StopWhenDecided: true, DisableTrace: true}
	var err error
	switch c.Task {
	case TaskFig2:
		cfg.History, err = NewSigmaOracle(f, a, stab, SigmaCanonical)
		cfg.Program = Fig2Program(props)
	case TaskFig4:
		cfg.History, err = NewSigmaKOracle(f, a, stab, SigmaKCanonical)
		cfg.Program = Fig4Program(props)
	case TaskStack:
		cfg.History = fd.NewSigmaS(f, a, stab)
		cfg.Program = func(p dist.ProcID, n int) sim.Automaton {
			return sim.NewStack(NewFig5(p, a), NewFig4(p, n, props[p-1]))
		}
	}
	return cfg, err
}

// Report checks a finished run against the task.
func (c TaskConfig) Report(res *sim.Result) agreement.Report {
	return agreement.Check(c.Pattern, c.SetK(), c.Proposals(), res)
}

// Check is the sweep verdict: nil, or the violations. It leaves the seed
// out, because the sweep reports it beside the error (FirstFailSeed).
func (c TaskConfig) Check(_ int64, res *sim.Result) error {
	if rep := c.Report(res); !rep.OK() {
		return errors.New(rep.String())
	}
	return nil
}

// Safety is the task's sim.Explore predicate.
func (c TaskConfig) Safety() func(map[dist.ProcID]any) string {
	return agreement.SafetyCheck(c.SetK(), c.Proposals())
}
