// Package hierarchy derives the failure-detector strictness chain that the
// paper establishes across Sections 3-5 and the appendix:
//
//	Σ₍p,q₎  ≻  σ  ≻  anti-Ω            (two-process register side)
//	Σ_X₂ₖ   ≻  σ₂ₖ                     (2k-register side)
//
// Each ⪯ edge is established by actually running the corresponding emulation
// (Figures 3, 5, 6) and validating the emulated history against the target
// class definition; each strictness (⋠ back-edge) by running the
// corresponding refutation harness (Lemma 7, Lemma 11, Lemma 15 via
// Corollary 17). The rendered report is the failure-detector-level summary
// of the paper's results, complementing the task-level lattice of Figure 1.
package hierarchy

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/fd"
	"repro/internal/separation"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// EdgeKind distinguishes reductions from separations.
type EdgeKind uint8

// Edge kinds.
const (
	// Reduction: From ⪯ To (To is at least as strong; an algorithm emulates
	// From using To).
	Reduction EdgeKind = iota + 1
	// Separation: From ⋠ To (no algorithm emulates From using To).
	Separation
)

// Edge is one verified relation between two failure detectors.
type Edge struct {
	From, To string
	Kind     EdgeKind
	Evidence string
}

// String renders the edge.
func (e Edge) String() string {
	op := "⪯"
	if e.Kind == Separation {
		op = "⋠"
	}
	return fmt.Sprintf("%s %s %s — %s", e.From, op, e.To, e.Evidence)
}

// Report is the derived hierarchy for one parameterization.
type Report struct {
	N, K  int
	Edges []Edge
}

// Config parameterizes Build.
type Config struct {
	// N is the system size (4..dist.MaxProcs); K the register half-size
	// for the σₖ side.
	N, K int
	// Seed drives schedules.
	Seed int64
	// Runs is the number of seeds each reduction edge's emulation is
	// validated across (0 = the default 3; negative is an error); Workers
	// the sweep pool size (0 = GOMAXPROCS).
	Runs    int64
	Workers int
}

// horizon bounds every emulation run; each checker judges the emulated
// history from 3/4 of it on.
const horizon = 600

// Build derives and verifies every edge. Any failed verification returns an
// error: the hierarchy must be fully machine-checked or not reported at all.
func Build(cfg Config) (*Report, error) {
	if cfg.N < 4 || cfg.N > dist.MaxProcs {
		return nil, fmt.Errorf("hierarchy: need 4 ≤ n ≤ %d, got %d", dist.MaxProcs, cfg.N)
	}
	if cfg.K < 1 || 2*cfg.K > cfg.N {
		return nil, fmt.Errorf("hierarchy: need 1 ≤ k ≤ n/2, got k=%d", cfg.K)
	}
	if cfg.Runs < 0 {
		return nil, fmt.Errorf("hierarchy: Config.Runs must not be negative, got %d", cfg.Runs)
	}
	if cfg.Runs == 0 {
		cfg.Runs = 3
	}
	rep := &Report{N: cfg.N, K: cfg.K}
	pair := dist.NewProcSet(1, 2)
	x := dist.RangeSet(1, dist.ProcID(2*cfg.K))
	f := dist.CrashPattern(cfg.N, dist.ProcID(cfg.N)) // one crashed process

	// σ ⪯ Σ{p,q} (Figure 3 / Lemma 6).
	err := validate(cfg, 3, f, fd.NewSigmaS(f, pair, 20),
		core.Fig3Program(pair),
		func(h sim.History) []fd.Violation {
			return core.CheckSigma(f, pair, h, horizon, horizon*3/4)
		})
	if err != nil {
		return nil, err
	}
	rep.add("σ", "Σ{p1,p2}", Reduction,
		fmt.Sprintf("Figure 3 emulation; emulated histories pass the Definition 3 checker (%d seeds)", cfg.Runs))

	// Σ{p,q} ⋠ σ (Lemma 7).
	cert, err := separation.Lemma7(separation.Lemma7Config{
		N: cfg.N, Candidate: separation.HeartbeatCandidate(pair, 10), Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	rep.add("Σ{p1,p2}", "σ", Separation, cert.String())

	// anti-Ω ⪯ σ (Figure 6 / Lemma 16).
	sigmaOracle, err := core.NewSigmaOracle(f, pair, 25, core.SigmaCanonical)
	if err != nil {
		return nil, err
	}
	err = validate(cfg, 6, f, sigmaOracle,
		core.Fig6Program(),
		func(h sim.History) []fd.Violation {
			return fd.CheckAntiOmega(f, h, horizon, horizon*3/4)
		})
	if err != nil {
		return nil, err
	}
	rep.add("anti-Ω", "σ", Reduction,
		fmt.Sprintf("Figure 6 emulation; emulated histories pass the anti-Ω checker (%d seeds)", cfg.Runs))

	// σ ⋠ anti-Ω (Corollary 17, via Lemma 15: anti-Ω cannot even solve set
	// agreement, which σ solves by Figure 2).
	cert15, err := separation.Lemma15(separation.Lemma15Config{
		N: cfg.N, Candidate: separation.EagerMinCandidate(8),
	})
	if err != nil {
		return nil, err
	}
	rep.add("σ", "anti-Ω", Separation,
		fmt.Sprintf("Corollary 17: σ solves set agreement (E1) but anti-Ω does not — %s", cert15))

	// σₖ side: σ₂ₖ ⪯ Σ_X₂ₖ (Figure 5 / Lemma 10).
	err = validate(cfg, 5, f, fd.NewSigmaS(f, x, 20),
		core.Fig5Program(x),
		func(h sim.History) []fd.Violation {
			return core.CheckSigmaK(f, x, h, horizon, horizon*3/4)
		})
	if err != nil {
		return nil, err
	}
	sk := fmt.Sprintf("σ%d", 2*cfg.K)
	sx := fmt.Sprintf("Σ_X%d", 2*cfg.K)
	rep.add(sk, sx, Reduction,
		fmt.Sprintf("Figure 5 emulation; emulated histories pass the Definition 9 checker (%d seeds)", cfg.Runs))

	// Σ_X₂ₖ ⋠ σ₂ₖ (Lemma 11).
	cert11, err := separation.Lemma11(separation.Lemma11Config{
		N: cfg.N, K: cfg.K,
		Candidate: separation.HeartbeatSetCandidate(x, 10),
		Seed:      cfg.Seed + 1,
	})
	if err != nil {
		return nil, err
	}
	rep.add(sx, sk, Separation, cert11.String())

	return rep, nil
}

func (r *Report) add(from, to string, kind EdgeKind, evidence string) {
	r.Edges = append(r.Edges, Edge{From: from, To: to, Kind: kind, Evidence: evidence})
}

// validate checks the reduction edge of Figure fig, whose emulator automata
// prog builds, with one sweep across cfg.Runs seeds: every run's emulated
// history, read off its trace, must pass check. Only a run that fails the
// check makes the emulation invalid; a sweep error is a config error and is
// returned as it is.
func validate(cfg Config, fig int, f *dist.FailurePattern, h sim.History, prog sim.Program, check func(sim.History) []fd.Violation) error {
	res, err := sweep.Run(sweep.Config{
		Sim: func() sim.Config {
			return sim.Config{Pattern: f, History: h, Program: prog, MaxSteps: horizon}
		},
		SeedStart: cfg.Seed,
		Seeds:     cfg.Runs,
		Workers:   cfg.Workers,
		Check: func(_ int64, res *sim.Result) error {
			if vs := check(&fd.RecordedHistory{Trace: res.Trace}); len(vs) != 0 {
				return fmt.Errorf("%v", vs)
			}
			return nil
		},
	})
	if err != nil {
		return err
	}
	if res.Failures > 0 {
		return fmt.Errorf("hierarchy: Fig %d emulation invalid (first seed %d: %w)", fig, res.FirstFailSeed, res.FirstFailErr)
	}
	return nil
}

// Render prints the hierarchy with the strict chains made explicit.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Failure-detector hierarchy, machine-checked for n = %d, k = %d\n\n", r.N, r.K)
	fmt.Fprintf(&b, "  strict chains:  Σ{p1,p2} ≻ σ ≻ anti-Ω        Σ_X%d ≻ σ%d\n\n", 2*r.K, 2*r.K)
	for _, e := range r.Edges {
		fmt.Fprintf(&b, "  %s\n", e)
	}
	return b.String()
}
