// Package lattice regenerates Figure 1 of the paper — the hardness lattice
// between X-registers and k-set agreement — as a machine-checked table. For
// each k with 1 ≤ k ≤ n/2 it establishes three relations:
//
//	2k-register  →  (n−k)-set agreement      (positive: run the algorithms)
//	2k-register  ←✗  (n−k)-set agreement     (negative: Lemma 11 harness)
//	(2k+1)-register →✗ (n−k−1)-set agreement (tightness: Theorem 13 experiment)
//
// The positive direction is established constructively: Σ_X₂ₖ is turned into
// σ₂ₖ by Figure 5 and σ₂ₖ into (n−k)-set agreement by Figure 4, composed in
// one protocol stack and run on sampled seeds (RunsPerRelation per failure
// pattern), each run checked for (n−k)-set agreement. The row is sampled,
// not model-checked: the bounded exhaustive checks of Figures 2–4 live in
// package core's tests.
package lattice

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/separation"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// Relation is one verified edge (or non-edge) of the lattice.
type Relation struct {
	K int
	// Name renders the paper's notation, e.g. "4-register → 6-set agreement".
	Name string
	// Holds is true for positive (→) rows and false for separations (6→).
	Holds bool
	// Evidence summarizes how the row was established.
	Evidence string
}

// Report is the regenerated Figure 1 for a given system size.
type Report struct {
	N    int
	Rows []Relation
}

// Config tunes the lattice driver.
type Config struct {
	// N is the system size, 4..dist.MaxProcs (≥ 4 so that every k ≤ n/2
	// row is non-trivial).
	N int
	// RunsPerRelation is the number of seeds for the positive rows: 0
	// means the default 5, and a negative value is an error.
	RunsPerRelation int
	// Seed is the base seed.
	Seed int64
	// Workers sets the seed-sweep pool size for the positive rows
	// (0 = GOMAXPROCS).
	Workers int
}

// Build regenerates the lattice for cfg.N processes. It fails with an error
// if any positive row cannot be verified or any separation harness fails to
// produce a certificate — either would mean the reproduction diverges from
// the paper.
func Build(cfg Config) (*Report, error) {
	if cfg.N < 4 || cfg.N > dist.MaxProcs {
		return nil, fmt.Errorf("lattice: need 4 ≤ n ≤ %d, got %d", dist.MaxProcs, cfg.N)
	}
	if cfg.RunsPerRelation < 0 {
		return nil, fmt.Errorf("lattice: Config.RunsPerRelation must not be negative, got %d", cfg.RunsPerRelation)
	}
	if cfg.RunsPerRelation == 0 {
		cfg.RunsPerRelation = 5
	}
	rep := &Report{N: cfg.N}
	for k := 1; 2*k <= cfg.N; k++ {
		rows, err := buildK(cfg, k)
		if err != nil {
			return nil, fmt.Errorf("lattice: k=%d: %w", k, err)
		}
		rep.Rows = append(rep.Rows, rows...)
	}
	return rep, nil
}

func buildK(cfg Config, k int) ([]Relation, error) {
	n := cfg.N
	x := dist.RangeSet(1, dist.ProcID(2*k))
	var rows []Relation

	// Positive row: 2k-register → (n−k)-set agreement, via Fig 5 ∘ Fig 4
	// over Σ_X₂ₖ (the weakest failure detector for the 2k-register).
	patterns := []*dist.FailurePattern{
		dist.NewFailurePattern(n),
		crashAllOutside(n, x),
		crashHalf(n, x, true),
		crashHalf(n, x, false),
	}
	runs := int64(0)
	for _, f := range patterns {
		if !f.InEnvironment() {
			continue
		}
		// One sweep per pattern: each worker owns a runner, and all of them
		// read one Σ_X oracle.
		task := core.TaskConfig{Task: core.TaskStack, Pattern: f, K: k}
		sc, err := task.SimConfig()
		if err != nil {
			return nil, err
		}
		res, err := sweep.Run(sweep.Config{
			Sim:       func() sim.Config { return sc },
			SeedStart: cfg.Seed,
			Seeds:     int64(cfg.RunsPerRelation),
			Workers:   cfg.Workers,
			Check:     task.Check,
		})
		if err != nil {
			return nil, err
		}
		if res.Failures > 0 {
			return nil, fmt.Errorf("positive row failed on %v (first seed %d: %v)", f, res.FirstFailSeed, res.FirstFailErr)
		}
		runs += res.Runs
	}
	rows = append(rows, Relation{
		K:        k,
		Name:     fmt.Sprintf("%d-register → %d-set agreement", 2*k, n-k),
		Holds:    true,
		Evidence: fmt.Sprintf("Σ_X₂ₖ →(Fig 5)→ σ₂ₖ →(Fig 4)→ task: %d runs checked", runs),
	})

	// Negative row: (n−k)-set agreement 6→ 2k-register (Lemma 11).
	cert, err := separation.Lemma11(separation.Lemma11Config{
		N: n, K: k,
		Candidate: separation.HeartbeatSetCandidate(x, 10),
		Seed:      cfg.Seed + int64(k),
	})
	if err != nil {
		return nil, err
	}
	rows = append(rows, Relation{
		K:        k,
		Name:     fmt.Sprintf("%d-register ←✗ %d-set agreement", 2*k, n-k),
		Holds:    false,
		Evidence: cert.String(),
	})

	// Tightness row: 2k-register →✗ (n−k−1)-set agreement (Theorem 13
	// experiment: Figure 4 decides exactly n−k values in adversarial runs).
	tcert, err := separation.Tightness(separation.TightnessConfig{N: n, K: k, Seed: cfg.Seed + 100 + int64(k)})
	if err != nil {
		return nil, err
	}
	rows = append(rows, Relation{
		K:        k,
		Name:     fmt.Sprintf("%d-register →✗ %d-set agreement", 2*k, n-k-1),
		Holds:    false,
		Evidence: tcert.String(),
	})
	return rows, nil
}

func crashAllOutside(n int, x dist.ProcSet) *dist.FailurePattern {
	f := dist.NewFailurePattern(n)
	for _, p := range dist.FullSet(n).Minus(x).Members() {
		f.CrashAt(p, 0)
	}
	return f
}

func crashHalf(n int, x dist.ProcSet, high bool) *dist.FailurePattern {
	low, hi := core.Halves(x)
	side := hi
	if !high {
		side = low
	}
	f := dist.NewFailurePattern(n)
	for _, p := range side.Members() {
		f.CrashAt(p, 0)
	}
	return f
}

// Render prints the lattice in the style of the paper's Figure 1.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 1 lattice, regenerated for n = %d\n", r.N)
	fmt.Fprintf(&b, "%-42s %-6s %s\n", "relation", "holds", "evidence")
	for _, row := range r.Rows {
		holds := "yes"
		if !row.Holds {
			holds = "no"
		}
		fmt.Fprintf(&b, "%-42s %-6s %s\n", row.Name, holds, row.Evidence)
	}
	return b.String()
}
