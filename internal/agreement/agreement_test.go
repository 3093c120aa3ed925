package agreement

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dist"
	"repro/internal/sim"
)

// decideProgram decides scripted values immediately.
func decideProgram(values map[dist.ProcID]Value) sim.Program {
	return func(p dist.ProcID, n int) sim.Automaton {
		return &decider{v: values[p], has: func() bool { _, ok := values[p]; return ok }()}
	}
}

type decider struct {
	v    Value
	has  bool
	done bool
}

func (d *decider) Step(e *sim.Env) {
	if d.has && !d.done {
		e.Decide(d.v)
		d.done = true
	}
}

func runWith(t *testing.T, f *dist.FailurePattern, values map[dist.ProcID]Value) *sim.Result {
	t.Helper()
	res, err := sim.Run(sim.Config{
		Pattern:   f,
		History:   sim.HistoryFunc(func(dist.ProcID, dist.Time) any { return nil }),
		Program:   decideProgram(values),
		Scheduler: &sim.RoundRobinScheduler{},
		MaxSteps:  100,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestCheckAccepts(t *testing.T) {
	f := dist.NewFailurePattern(3)
	props := DistinctProposals(3)
	res := runWith(t, f, map[dist.ProcID]Value{1: props[0], 2: props[0], 3: props[2]})
	rep := Check(f, 2, props, res)
	if !rep.OK() || rep.Distinct != 2 {
		t.Fatalf("%s", rep)
	}
}

func TestCheckAgreementViolation(t *testing.T) {
	f := dist.NewFailurePattern(3)
	props := DistinctProposals(3)
	res := runWith(t, f, map[dist.ProcID]Value{1: props[0], 2: props[1], 3: props[2]})
	rep := Check(f, 2, props, res)
	if rep.OK() {
		t.Fatal("3 distinct values accepted for k=2")
	}
	if !strings.Contains(rep.String(), "agreement") {
		t.Fatalf("%s", rep)
	}
}

func TestCheckValidityViolation(t *testing.T) {
	f := dist.NewFailurePattern(2)
	props := DistinctProposals(2)
	res := runWith(t, f, map[dist.ProcID]Value{1: 999999, 2: props[1]})
	rep := Check(f, 2, props, res)
	if rep.OK() || !strings.Contains(rep.String(), "validity") {
		t.Fatalf("%s", rep)
	}
}

func TestCheckTerminationViolation(t *testing.T) {
	f := dist.NewFailurePattern(3)
	props := DistinctProposals(3)
	res := runWith(t, f, map[dist.ProcID]Value{1: props[0]}) // p2, p3 never decide
	rep := Check(f, 2, props, res)
	if rep.OK() || !strings.Contains(rep.String(), "termination") {
		t.Fatalf("%s", rep)
	}
}

func TestCheckCrashedNeedNotDecide(t *testing.T) {
	f := dist.CrashPattern(3, 3)
	props := DistinctProposals(3)
	res := runWith(t, f, map[dist.ProcID]Value{1: props[0], 2: props[0]})
	if rep := Check(f, 1, props, res); !rep.OK() {
		t.Fatalf("%s", rep)
	}
}

func TestDistinctProposalsUnique(t *testing.T) {
	prop := func(nRaw uint8) bool {
		n := 1 + int(nRaw)%40
		ps := DistinctProposals(n)
		if len(ps) != n {
			return false
		}
		seen := make(map[Value]bool, n)
		for _, v := range ps {
			if v == NoValue || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNoValueIsMinimum(t *testing.T) {
	// The ⊥ < v convention of Figure 2's Phase 3 max.
	for _, v := range DistinctProposals(10) {
		if NoValue >= v {
			t.Fatalf("NoValue not below %d", int64(v))
		}
	}
}

// TestCheckListsViolationsInProcessOrder pins Check's whole text on one
// result with four bad decisions and one undecided correct process (a
// wrong-typed decision is reported once, by its type, and is no termination
// violation): violations follow process identity, never map order, so a
// failing seed always reports the same text.
func TestCheckListsViolationsInProcessOrder(t *testing.T) {
	f := dist.NewFailurePattern(5)
	res := &sim.Result{
		Decisions: map[dist.ProcID]any{1: Value(7), 2: "x", 3: Value(9), 4: Value(11)},
		Reason:    sim.ReasonMaxSteps,
		Steps:     40,
	}
	const want = "VIOLATED: [validity: p1 decided 7, which no process proposed " +
		"p2 decided x of type string, want agreement.Value " +
		"validity: p3 decided 9, which no process proposed " +
		"validity: p4 decided 11, which no process proposed " +
		"termination: correct process p5 never decided (run ended: max-steps after 40 steps) " +
		"agreement: 3 distinct values decided [7 9 11], want ≤ 1]"
	for i := 0; i < 50; i++ {
		if got := Check(f, 1, DistinctProposals(5), res).String(); got != want {
			t.Fatalf("call %d:\n got %s\nwant %s", i, got, want)
		}
	}
}
