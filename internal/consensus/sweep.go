package consensus

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/agreement"
	"repro/internal/dist"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// SweepConfig parameterizes a seeded consensus sweep under an adversarial
// network — the "agreeing" half of the paper's title run against the same
// sim.FaultPlan the store rides: loss, duplication, bounded delay, scripted
// (possibly one-way) partitions, and crash/recovery in the failure pattern.
type SweepConfig struct {
	// Pattern is the failure pattern shared by every run (crashes and
	// recoveries included). Required, and must be in the environment.
	Pattern *dist.FailurePattern
	// Proposals are the per-process initial values, indexed ProcID-1, with
	// exactly Pattern.N() entries.
	Proposals []agreement.Value
	// Stab is the Ω+Σ oracle stabilization time; 0 defaults to 25.
	Stab dist.Time
	// MaxSteps bounds each run; 0 defaults to 200_000.
	MaxSteps int64
	// Faults, when non-nil, is the adversarial network for every run.
	Faults *sim.FaultPlan
	// SeedStart/Seeds select the seed range; Seeds is required.
	SeedStart int64
	Seeds     int64
	// Workers sets the sweep pool size (0 = GOMAXPROCS).
	Workers int
}

// Sweep runs seeded consensus runs and aggregates them. Every worker runs
// the one SimConfig with a Program of its own, since a Program's nodes share
// a frame pool, and all of them read one shared Oracle. Each run must uphold
// validity and uniform agreement and must terminate: every correct process
// decides, and so does every recovered process, which relearns the decision
// from the periodic decide re-broadcast — the liveness property loss +
// recovery threaten. Aggregates are bit-identical across worker counts
// (fault decisions are pure in (plan seed ⊕ run seed, message seq), and the
// sweep only folds order-independent statistics).
func Sweep(cfg SweepConfig) (*sweep.Result, error) {
	sc, err := cfg.SimConfig()
	if err != nil {
		return nil, err
	}
	return sweep.Run(sweep.Config{
		SeedStart: cfg.SeedStart,
		Seeds:     cfg.Seeds,
		Workers:   cfg.Workers,
		Sim: func() sim.Config {
			c := sc
			c.Program = Program(cfg.Proposals)
			return c
		},
		Check: cfg.check,
	})
}

// SimConfig returns the one definition of a consensus run, validated: the
// Ω+Σ oracle, the horizon (stretched to twice the last partition heal), the
// fault plan and a stop once every correct and recovered process decided.
// It is untraced and has no Scheduler (a runner then owns a seeded one);
// callers may set both. Its Program's nodes share a frame pool, so it serves
// one runner at a time; every other part of it is read-only.
func (cfg SweepConfig) SimConfig() (sim.Config, error) {
	f := cfg.Pattern
	if f == nil {
		return sim.Config{}, errors.New("consensus: SweepConfig.Pattern is required")
	}
	if !f.InEnvironment() {
		return sim.Config{}, errors.New("consensus: pattern crashes every process")
	}
	if len(cfg.Proposals) != f.N() {
		return sim.Config{}, fmt.Errorf("consensus: %d proposals for %d processes", len(cfg.Proposals), f.N())
	}
	stab := cfg.Stab
	if stab <= 0 {
		stab = 25
	}
	maxSteps := cfg.MaxSteps
	if maxSteps <= 0 {
		maxSteps = 200_000
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(f.N()); err != nil {
			return sim.Config{}, err
		}
		// A partition that never heals can legitimately park the protocol
		// forever only if it cuts no quorum; rather than reason about that
		// here, demand heals inside the horizon like the store sweep does.
		for i, pt := range cfg.Faults.Partitions {
			if pt.Until == dist.NoCrash {
				return sim.Config{}, fmt.Errorf("consensus: Partitions[%d] never heals; consensus termination needs the full quorum reachable eventually", i)
			}
			maxSteps = max(maxSteps, 2*int64(pt.Until))
		}
	}
	// Termination targets: the correct processes, plus every recovered one,
	// which must relearn the chosen value from the decide re-broadcast.
	target := f.Correct().Union(f.Recovering())
	return sim.Config{
		Pattern:      f,
		History:      NewOracle(f, stab),
		Program:      Program(cfg.Proposals),
		MaxSteps:     maxSteps,
		Faults:       cfg.Faults,
		StopWhen:     func(sn *sim.Snapshot) bool { return target.SubsetOf(sn.DecidedSet()) },
		DisableTrace: true,
	}, nil
}

// check is Sweep's verdict on one run: agreement.Check with k = 1, and a
// decision at every recovered process. It leaves the seed out, because the
// sweep reports it beside the error (FirstFailSeed).
func (cfg SweepConfig) check(_ int64, res *sim.Result) error {
	rep := agreement.Check(cfg.Pattern, 1, cfg.Proposals, res)
	if len(rep.Violations) > 0 {
		return errors.New(strings.Join(rep.Violations, "; "))
	}
	var missing []string
	cfg.Pattern.Recovering().ForEach(func(p dist.ProcID) {
		if _, ok := res.Decisions[p]; !ok {
			missing = append(missing, fmt.Sprintf("p%d", int(p)))
		}
	})
	if len(missing) > 0 {
		return fmt.Errorf("recovered process(es) %s never relearned the decision (run ended: %s after %d steps)",
			strings.Join(missing, ","), res.Reason, res.Steps)
	}
	return nil
}
