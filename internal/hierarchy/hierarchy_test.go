package hierarchy

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/fd"
	"repro/internal/sim"
)

func TestBuild(t *testing.T) {
	rep, err := Build(Config{N: 5, K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Edges) != 6 {
		t.Fatalf("got %d edges, want 6:\n%s", len(rep.Edges), rep.Render())
	}
	kinds := []EdgeKind{Reduction, Separation, Reduction, Separation, Reduction, Separation}
	for i, e := range rep.Edges {
		if e.Kind != kinds[i] {
			t.Fatalf("edge %d (%s): kind=%d, want %d", i, e, e.Kind, kinds[i])
		}
	}
	out := rep.Render()
	for _, want := range []string{"σ ⪯ Σ{p1,p2}", "Σ{p1,p2} ⋠ σ", "anti-Ω ⪯ σ", "σ ⋠ anti-Ω", "σ4 ⪯ Σ_X4", "Σ_X4 ⋠ σ4"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestBuildParamSweep(t *testing.T) {
	for _, tc := range []struct{ n, k int }{{4, 1}, {6, 2}, {6, 3}, {8, 3}} {
		if _, err := Build(Config{N: tc.n, K: tc.k, Seed: int64(tc.n)}); err != nil {
			t.Fatalf("n=%d k=%d: %v", tc.n, tc.k, err)
		}
	}
}

func TestBuildRejectsBadParams(t *testing.T) {
	if _, err := Build(Config{N: 3, K: 1}); err == nil {
		t.Fatal("n=3 accepted")
	}
	if _, err := Build(Config{N: 6, K: 4}); err == nil {
		t.Fatal("k>n/2 accepted")
	}
	if _, err := Build(Config{N: dist.MaxProcs + 1, K: 2}); err == nil || !strings.Contains(err.Error(), "hierarchy: need 4 ≤ n ≤ 256") {
		t.Fatalf("n past MaxProcs: got %v, want an error naming the size range", err)
	}
	if _, err := Build(Config{N: 6, K: 2, Runs: -1}); err == nil || !strings.Contains(err.Error(), "Runs") {
		t.Fatalf("negative Runs: got %v, want an error naming Runs", err)
	}
	// A bad seed is a config error, not a failed emulation.
	if _, err := Build(Config{N: 5, K: 2, Seed: -1}); err == nil || !strings.Contains(err.Error(), "seed range") ||
		strings.Contains(err.Error(), "invalid") {
		t.Fatalf("negative Seed: got %v, want an error naming the seed range that does not say invalid", err)
	}
}

// TestValidateReportsFirstFailingSeed: a reduction edge whose check rejects
// every run is an invalid emulation, and the error names the figure and the
// first failing seed once.
func TestValidateReportsFirstFailingSeed(t *testing.T) {
	pair := dist.NewProcSet(1, 2)
	f := dist.CrashPattern(4, 4)
	reject := func(sim.History) []fd.Violation {
		return []fd.Violation{{Property: "test", Witness: "always"}}
	}
	err := validate(Config{N: 4, K: 1, Seed: 5, Runs: 3, Workers: 2}, 3, f, fd.NewSigmaS(f, pair, 20), core.Fig3Program(pair), reject)
	if err == nil {
		t.Fatal("a check that rejects every run validated the edge")
	}
	const want = "hierarchy: Fig 3 emulation invalid (first seed 5: [test violated: always])"
	if err.Error() != want {
		t.Fatalf("got %q, want %q", err, want)
	}
}
