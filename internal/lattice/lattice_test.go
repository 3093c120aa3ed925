package lattice

import (
	"strings"
	"testing"
	"time"

	"repro/internal/dist"
)

func TestBuildSmall(t *testing.T) {
	rep, err := Build(Config{N: 4, RunsPerRelation: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// k = 1 and k = 2 → three rows each.
	if len(rep.Rows) != 6 {
		t.Fatalf("got %d rows, want 6:\n%s", len(rep.Rows), rep.Render())
	}
	for i, row := range rep.Rows {
		wantHolds := i%3 == 0
		if row.Holds != wantHolds {
			t.Fatalf("row %d (%s): holds=%v, want %v", i, row.Name, row.Holds, wantHolds)
		}
	}
}

func TestBuildMatchesPaperShape(t *testing.T) {
	for _, n := range []int{5, 6} {
		rep, err := Build(Config{N: n, RunsPerRelation: 2, Seed: int64(n)})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		out := rep.Render()
		// The k = 1 rows are exactly the Theorem 2 statement.
		if !strings.Contains(out, "2-register → ") {
			t.Fatalf("n=%d: missing the 2-register positive row:\n%s", n, out)
		}
		if !strings.Contains(out, "2-register ←✗") {
			t.Fatalf("n=%d: missing the 2-register separation row:\n%s", n, out)
		}
	}
}

func TestBuildRejectsTinySystems(t *testing.T) {
	if _, err := Build(Config{N: 3}); err == nil {
		t.Fatal("expected error for n < 4")
	}
}

// TestBuildRejectsOversizedSystems: a system past dist.MaxProcs is an
// error up front, not a panic inside dist or a run of minutes.
func TestBuildRejectsOversizedSystems(t *testing.T) {
	start := time.Now()
	_, err := Build(Config{N: dist.MaxProcs + 1})
	if err == nil || !strings.Contains(err.Error(), "lattice: need 4 ≤ n ≤ 256") {
		t.Fatalf("got %v, want an error naming the size range", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("rejection took %v", d)
	}
}

func TestBuildRejectsNegativeRuns(t *testing.T) {
	_, err := Build(Config{N: 4, RunsPerRelation: -1})
	if err == nil || !strings.Contains(err.Error(), "RunsPerRelation") {
		t.Fatalf("got %v, want an error naming RunsPerRelation", err)
	}
}
