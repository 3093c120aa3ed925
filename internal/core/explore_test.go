package core

import (
	"fmt"
	"testing"

	"repro/internal/agreement"
	"repro/internal/dist"
	"repro/internal/sim"
)

// safetyCheck builds the exhaustive-exploration predicate: Agreement (≤ k
// distinct) and Validity over the partial decision map.
func safetyCheck(k int, props []agreement.Value) func(map[dist.ProcID]any) string {
	valid := make(map[agreement.Value]bool, len(props))
	for _, v := range props {
		valid[v] = true
	}
	return func(dec map[dist.ProcID]any) string {
		distinct := make(map[agreement.Value]bool, len(dec))
		for p, raw := range dec {
			v, ok := raw.(agreement.Value)
			if !ok {
				return fmt.Sprintf("p%d decided non-Value %v", int(p), raw)
			}
			if !valid[v] {
				return fmt.Sprintf("validity: p%d decided unproposed %d", int(p), int64(v))
			}
			distinct[v] = true
		}
		if len(distinct) > k {
			return fmt.Sprintf("agreement: %d distinct values > k=%d", len(distinct), k)
		}
		return ""
	}
}

// exploreCounts pins an exploration's size: a change to the explorer's step
// semantics that changes which states are reachable shows up here.
type exploreCounts struct {
	states, steps int64
	truncated     bool
}

func checkCounts(t *testing.T, f *dist.FailurePattern, res *sim.ExploreResult, want exploreCounts) {
	t.Helper()
	got := exploreCounts{res.StatesVisited, res.StepsExecuted, res.Truncated}
	if got != want {
		t.Errorf("%v: %d states, %d steps, truncated=%v; want %d, %d, %v",
			f, got.states, got.steps, got.truncated, want.states, want.steps, want.truncated)
	}
}

// TestFig2ExhaustiveSafety model-checks Figure 2 for n = 3: across EVERY
// interleaving and message reordering (up to the depth bound), no reachable
// state violates Agreement or Validity. This upgrades the sampled evidence
// of Theorem 4 to a bounded exhaustive guarantee.
func TestFig2ExhaustiveSafety(t *testing.T) {
	const n = 3
	props := agreement.DistinctProposals(n)
	cases := []struct {
		f    *dist.FailurePattern
		want exploreCounts
	}{
		{dist.NewFailurePattern(n), exploreCounts{8564, 64540, true}},
		{dist.CrashPattern(n, 3), exploreCounts{20, 60, false}},
		{dist.CrashPattern(n, 2), exploreCounts{33, 112, false}},
		{dist.CrashPattern(n, 2, 3), exploreCounts{4, 4, false}},
	}
	for _, tc := range cases {
		f := tc.f
		oracle, err := NewSigmaOracle(f, dist.NewProcSet(1, 2), 1, SigmaCanonical)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Explore(sim.ExploreConfig{
			Pattern:  f,
			History:  oracle,
			Program:  Fig2Program(props),
			MaxDepth: 14,
			TimeCap:  1,
			Check:    safetyCheck(n-1, props),
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Violation != "" {
			t.Fatalf("%v: %s (depth %d)", f, res.Violation, res.ViolationDepth)
		}
		checkCounts(t, f, res, tc.want)
	}
}

// TestFig4ExhaustiveSafety model-checks Figure 4 for n = 4, k = 1.
func TestFig4ExhaustiveSafety(t *testing.T) {
	const n, k = 4, 1
	props := agreement.DistinctProposals(n)
	active := dist.RangeSet(1, 2)
	cases := []struct {
		f    *dist.FailurePattern
		want exploreCounts
	}{
		{dist.CrashPattern(n, 3, 4), exploreCounts{77, 273, false}},
		{dist.CrashPattern(n, 2, 3, 4), exploreCounts{4, 4, false}},
	}
	for _, tc := range cases {
		f := tc.f
		oracle, err := NewSigmaKOracle(f, active, 1, SigmaKCanonical)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Explore(sim.ExploreConfig{
			Pattern:  f,
			History:  oracle,
			Program:  Fig4Program(props),
			MaxDepth: 12,
			TimeCap:  1,
			Check:    safetyCheck(n-k, props),
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Violation != "" {
			t.Fatalf("%v: %s (depth %d)", f, res.Violation, res.ViolationDepth)
		}
		checkCounts(t, f, res, tc.want)
	}
}

// brokenFig2 is Figure 2 with the coordination removed: actives decide their
// own values immediately. The explorer must find the agreement violation —
// validating that the model checker actually detects bugs.
type brokenFig2 struct {
	self    dist.ProcID
	v       agreement.Value
	decided bool
}

func (a *brokenFig2) Step(e *sim.Env) {
	if a.decided {
		return
	}
	if _, ok := e.QueryFD().(SigmaOut); !ok {
		return
	}
	e.Decide(a.v) // wrong: no elimination of any value
	a.decided = true
}

func (a *brokenFig2) Snapshot() sim.Automaton {
	cp := *a
	return &cp
}

func TestExploreCatchesBrokenAlgorithm(t *testing.T) {
	const n = 3
	props := agreement.DistinctProposals(n)
	f := dist.NewFailurePattern(n)
	oracle, err := NewSigmaOracle(f, dist.NewProcSet(1, 2), 1, SigmaCanonical)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Explore(sim.ExploreConfig{
		Pattern: f,
		History: oracle,
		Program: func(p dist.ProcID, nn int) sim.Automaton {
			return &brokenFig2{self: p, v: props[p-1]}
		},
		MaxDepth: 8,
		TimeCap:  1,
		Check:    safetyCheck(n-1, props),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == "" {
		t.Fatal("the explorer missed the planted agreement violation")
	}
}

// TestFig2ExploreWorkerDeterminism pins the engine's reproducibility
// guarantee on a real workload: the whole ExploreResult of the Figure 2
// model check is bit-identical at every worker count.
func TestFig2ExploreWorkerDeterminism(t *testing.T) {
	const n = 3
	props := agreement.DistinctProposals(n)
	f := dist.CrashPattern(n, 3)
	oracle, err := NewSigmaOracle(f, dist.NewProcSet(1, 2), 1, SigmaCanonical)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.ExploreConfig{
		Pattern:  f,
		History:  oracle,
		Program:  Fig2Program(props),
		MaxDepth: 12,
		TimeCap:  1,
		Workers:  1,
		Check:    safetyCheck(n-1, props),
	}
	base, err := sim.Explore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{4, 8} {
		cfg.Workers = w
		got, err := sim.Explore(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if *base != *got {
			t.Fatalf("workers=%d diverged:\n  1: %+v\n  %d: %+v", w, *base, w, *got)
		}
	}
}

func TestExploreRejectsNonSnapshotter(t *testing.T) {
	f := dist.NewFailurePattern(2)
	_, err := sim.Explore(sim.ExploreConfig{
		Pattern:  f,
		History:  sim.HistoryFunc(func(dist.ProcID, dist.Time) any { return nil }),
		Program:  func(p dist.ProcID, n int) sim.Automaton { return NewFig3(p, dist.NewProcSet(1, 2)) },
		MaxDepth: 4,
		Check:    func(map[dist.ProcID]any) string { return "" },
	})
	if err == nil {
		t.Fatal("expected ErrNotSnapshotter")
	}
}
