package separation

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/fd"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// SearchConfig parameterizes a brute-force candidate search: a seed sweep
// that runs a candidate emulation many times and checks every run's
// emulated history against the target class definition.
type SearchConfig struct {
	// Pattern is the failure pattern of every run.
	Pattern *dist.FailurePattern
	// History is the underlying oracle history. Every worker reads it
	// concurrently, so its Output must not write (Σ_S and the other
	// pre-boxed oracles do not).
	History sim.History
	// Candidate is the emulation under test.
	Candidate EmulatorProgram
	// Check validates one run's emulated history (e.g. fd.CheckSigmaS or
	// core.CheckSigma applied over the horizon). It is called concurrently
	// from every worker and must be safe for concurrent use.
	Check func(h sim.History) []fd.Violation
	// Horizon bounds each run. Default 2000.
	Horizon int64
	// SeedStart and Seeds give the swept range (Seeds default 32).
	SeedStart, Seeds int64
	// Workers is the sweep pool size (0 = GOMAXPROCS).
	Workers int
}

// Search sweeps the candidate across seeds on the concurrent engine and
// returns the aggregate; Result.FirstFailSeed is the smallest seed whose
// emulated history violated the class (-1 when the candidate survived the
// whole sweep).
//
// The search is the honest counterpart of the constructive harnesses — and
// its limits are the content of the paper's impossibility results: naive
// candidates (StubbornCandidate) fall to single-run sampling, but a
// candidate that satisfies the class in every individual run
// (HeartbeatCandidate) can only be refuted by a *pair* of runs assembled
// against it, which is exactly what Lemma7 and Lemma11 construct. A
// surviving search is therefore evidence of per-run validity, never of
// emulability.
func Search(cfg SearchConfig) (*sweep.Result, error) {
	if cfg.Pattern == nil || cfg.History == nil || cfg.Candidate == nil || cfg.Check == nil {
		return nil, fmt.Errorf("separation: SearchConfig requires Pattern, History, Candidate and Check")
	}
	if cfg.Horizon <= 0 {
		cfg.Horizon = 2000
	}
	if cfg.Seeds <= 0 {
		cfg.Seeds = 32
	}
	prog := func(p dist.ProcID, n int) sim.Automaton { return cfg.Candidate(p, n) }
	return sweep.Run(sweep.Config{
		Sim: func() sim.Config {
			return sim.Config{
				Pattern:  cfg.Pattern,
				History:  cfg.History,
				Program:  prog,
				MaxSteps: cfg.Horizon,
			}
		},
		SeedStart: cfg.SeedStart,
		Seeds:     cfg.Seeds,
		Workers:   cfg.Workers,
		Check: func(seed int64, r *sim.Result) error {
			if vs := cfg.Check(&fd.RecordedHistory{Trace: r.Trace}); len(vs) != 0 {
				return fmt.Errorf("seed %d: %v", seed, vs)
			}
			return nil
		},
	})
}
