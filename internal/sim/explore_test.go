package sim

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/dist"
)

// pingAll is a minimal Snapshotter automaton with real branching: it
// broadcasts once, counts deliveries, and decides after two. It implements
// StateEncoder, exercising the explorer's binary fast path.
type pingAll struct {
	self    dist.ProcID
	sent    bool
	count   int
	decided bool
}

type pingMsg struct{ From dist.ProcID }

func (m pingMsg) AppendState(b []byte) []byte { return append(b, 0x7f, byte(m.From)) }

func (a *pingAll) Step(e *Env) {
	if !a.sent {
		e.Broadcast(pingMsg{From: a.self})
		a.sent = true
	}
	if _, _, ok := e.Delivered(); ok {
		a.count++
	}
	if a.count >= 2 && !a.decided {
		e.Decide(a.count)
		a.decided = true
	}
}

func (a *pingAll) Snapshot() Automaton {
	cp := *a
	return &cp
}

func (a *pingAll) AppendState(b []byte) []byte {
	var flags byte
	if a.sent {
		flags |= 1
	}
	if a.decided {
		flags |= 2
	}
	return append(b, byte(a.self), byte(a.self>>8), flags, byte(a.count))
}

// selfish decides its own identity at its first step — any check requiring
// a single decided value is violated at depth 2. It does NOT implement
// StateEncoder, exercising the fmt fallback of the canonicalizer.
type selfish struct {
	self dist.ProcID
	done bool
}

func (a *selfish) Step(e *Env) {
	if !a.done {
		e.Decide(int(a.self))
		a.done = true
	}
}

func (a *selfish) Snapshot() Automaton {
	cp := *a
	return &cp
}

func pingProgram() Program {
	return func(p dist.ProcID, n int) Automaton { return &pingAll{self: p} }
}

func noViolation(map[dist.ProcID]any) string { return "" }

func TestExploreMaxDepthTruncation(t *testing.T) {
	f := dist.NewFailurePattern(3)
	res, err := Explore(ExploreConfig{
		Pattern: f, History: nilHistory(), Program: pingProgram(),
		MaxDepth: 3, TimeCap: 1, Check: noViolation,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Fatal("MaxDepth=3 on an unbounded system must truncate")
	}
	if res.Violation != "" {
		t.Fatalf("unexpected violation %q", res.Violation)
	}
	if res.StatesVisited == 0 || res.StepsExecuted == 0 {
		t.Fatalf("nothing explored: %+v", res)
	}
}

func TestExploreMaxStatesTruncation(t *testing.T) {
	f := dist.NewFailurePattern(3)
	cfg := ExploreConfig{
		Pattern: f, History: nilHistory(), Program: pingProgram(),
		MaxDepth: 8, TimeCap: 1, Check: noViolation,
	}
	full, err := Explore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MaxStates = 8
	capped, err := Explore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !capped.Truncated {
		t.Fatal("MaxStates=8 must truncate")
	}
	if capped.StatesVisited < 8 || capped.StatesVisited >= full.StatesVisited {
		t.Fatalf("capped exploration visited %d states (full: %d), want ≥ 8 and < full",
			capped.StatesVisited, full.StatesVisited)
	}
}

func TestExploreTimeCapConvergence(t *testing.T) {
	// With every message delivered and nothing left to do, states differing
	// only in t beyond TimeCap merge, so the frontier must drain long before
	// MaxDepth even though the schedule space is infinite in time.
	f := dist.NewFailurePattern(2)
	res, err := Explore(ExploreConfig{
		Pattern: f, History: nilHistory(), Program: pingProgram(),
		MaxDepth: 60, TimeCap: 1, Check: noViolation,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated {
		t.Fatalf("TimeCap merging failed to converge: %+v", res)
	}
}

func TestExploreCrashAfterTimeCapRejected(t *testing.T) {
	f := dist.NewFailurePattern(3)
	f.CrashAt(3, 5)
	_, err := Explore(ExploreConfig{
		Pattern: f, History: nilHistory(), Program: pingProgram(),
		MaxDepth: 4, TimeCap: 3, Check: noViolation,
	})
	if err == nil || !strings.Contains(err.Error(), "TimeCap") {
		t.Fatalf("crash at 5 with TimeCap 3 must be rejected, got err=%v", err)
	}
}

// TestExploreRejectsRecoveries: the explorer does not model a recovery (a
// fresh automaton, the inbox wipe), so a pattern with one is rejected
// rather than reported as explored.
func TestExploreRejectsRecoveries(t *testing.T) {
	f := dist.NewFailurePattern(3)
	f.CrashAt(1, 1)
	f.RecoverAt(1, 5)
	_, err := Explore(ExploreConfig{
		Pattern: f, History: nilHistory(), Program: pingProgram(),
		MaxDepth: 8, Check: noViolation,
	})
	if err == nil || !strings.Contains(err.Error(), "p1 recovers at 5") {
		t.Fatalf("a pattern where p1 recovers must be rejected naming p1, got err=%v", err)
	}
}

func TestExploreMissingConfigRejected(t *testing.T) {
	f := dist.NewFailurePattern(2)
	if _, err := Explore(ExploreConfig{Pattern: f, History: nilHistory(), Program: pingProgram(), MaxDepth: 2}); err == nil {
		t.Fatal("nil Check must be rejected")
	}
	if _, err := Explore(ExploreConfig{History: nilHistory(), Program: pingProgram(), MaxDepth: 2, Check: noViolation}); err == nil {
		t.Fatal("nil Pattern must be rejected")
	}
}

// TestExploreDeterministicAcrossWorkers asserts the tentpole reproducibility
// guarantee: the full ExploreResult is bit-identical for every worker count,
// with and without a violation to find.
func TestExploreDeterministicAcrossWorkers(t *testing.T) {
	f := dist.NewFailurePattern(3)
	configs := map[string]ExploreConfig{
		"safe": {
			Pattern: f, History: nilHistory(), Program: pingProgram(),
			MaxDepth: 7, TimeCap: 1, Check: noViolation,
		},
		"violating": {
			Pattern: f, History: nilHistory(),
			Program:  func(p dist.ProcID, n int) Automaton { return &selfish{self: p} },
			MaxDepth: 6, TimeCap: 1,
			Check: func(dec map[dist.ProcID]any) string {
				if len(dec) > 1 {
					return "more than one decision"
				}
				return ""
			},
		},
	}
	for name, cfg := range configs {
		cfg.Workers = 1
		base, err := Explore(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if name == "violating" && base.Violation == "" {
			t.Fatal("planted violation not found")
		}
		for _, w := range []int{2, 4, 8} {
			cfg.Workers = w
			got, err := Explore(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(base, got) {
				t.Fatalf("%s: workers=%d diverged:\n  1: %+v\n  %d: %+v", name, w, base, w, got)
			}
		}
	}
}

// TestExploreAllocsPerBranch is the regression tripwire for per-state
// garbage: the engine must stay within a small constant number of heap
// allocations per executed branch (the stepped automaton's Snapshot, plus
// amortized pool/frontier growth). The string-keyed engine this replaced
// spent ~30 allocations per branch on key rendering alone.
func TestExploreAllocsPerBranch(t *testing.T) {
	f := dist.NewFailurePattern(3)
	cfg := ExploreConfig{
		Pattern: f, History: nilHistory(), Program: pingProgram(),
		MaxDepth: 7, TimeCap: 1, Workers: 1, Check: noViolation,
	}
	res, err := Explore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Explore(cfg); err != nil {
			t.Fatal(err)
		}
	})
	perBranch := allocs / float64(res.StepsExecuted)
	t.Logf("%.0f allocs for %d states / %d branches = %.2f allocs/branch",
		allocs, res.StatesVisited, res.StepsExecuted, perBranch)
	if perBranch > 4 {
		t.Fatalf("%.2f allocs per branch, want ≤ 4", perBranch)
	}
}
