package sim

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/trace"
)

// echoAutomaton broadcasts a counter on its first step and decides on the
// first delivered payload.
type echoAutomaton struct {
	self    dist.ProcID
	sent    bool
	decided bool
}

type pingPayload struct{ From dist.ProcID }

func (a *echoAutomaton) Step(e *Env) {
	if payload, _, ok := e.Delivered(); ok && !a.decided {
		e.Decide(payload)
		a.decided = true
		return
	}
	if !a.sent {
		e.Broadcast(pingPayload{From: a.self})
		a.sent = true
	}
}

func echoProgram(p dist.ProcID, n int) Automaton { return &echoAutomaton{self: p} }

func nilHistory() History {
	return HistoryFunc(func(dist.ProcID, dist.Time) any { return nil })
}

func TestRunnerBasicsAndDeterminism(t *testing.T) {
	f := dist.NewFailurePattern(3)
	run := func() *Result {
		res, err := Run(Config{
			Pattern: f, History: nilHistory(), Program: echoProgram,
			Scheduler: NewRandomScheduler(7), StopWhenDecided: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Steps != b.Steps || a.MessagesSent != b.MessagesSent {
		t.Fatalf("same seed, different runs: %d/%d steps, %d/%d msgs", a.Steps, b.Steps, a.MessagesSent, b.MessagesSent)
	}
	if len(a.Decisions) != 3 {
		t.Fatalf("decisions: %v", a.Decisions)
	}
	for p, da := range a.Decisions {
		if db := b.Decisions[p]; da != db {
			t.Fatalf("p%d decided %v vs %v", int(p), da, db)
		}
	}
}

func TestRunnerCrashedNeverSteps(t *testing.T) {
	f := dist.CrashPattern(3, 2)
	res, err := Run(Config{
		Pattern: f, History: nilHistory(), Program: echoProgram,
		Scheduler: NewRandomScheduler(1), MaxSteps: 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.Trace.Events() {
		if e.Kind == trace.StepKind && e.P == 2 {
			t.Fatal("crashed process took a step")
		}
	}
	if _, decided := res.Decisions[2]; decided {
		t.Fatal("crashed process decided")
	}
}

func TestRunnerLateCrashStopsSteps(t *testing.T) {
	f := dist.NewFailurePattern(2)
	f.CrashAt(2, 10)
	res, err := Run(Config{
		Pattern: f, History: nilHistory(), Program: echoProgram,
		Scheduler: &RoundRobinScheduler{}, MaxSteps: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.Trace.Events() {
		if e.Kind == trace.StepKind && e.P == 2 && e.T >= 10 {
			t.Fatalf("p2 stepped at t=%d after crashing at 10", int64(e.T))
		}
	}
}

func TestScriptedCrashedChoiceSkipped(t *testing.T) {
	f := dist.CrashPattern(2, 2)
	res, err := Run(Config{
		Pattern: f, History: nilHistory(), Program: echoProgram,
		Scheduler: &ScriptedScheduler{Script: Steps(DeliverAuto, 3, 2, 1)},
		MaxSteps:  100,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The p2 choices are skipped; only p1's three steps run.
	if got := len(res.Trace.Filter(func(e trace.Event) bool { return e.Kind == trace.StepKind })); got != 3 {
		t.Fatalf("steps=%d, want 3", got)
	}
}

// stepDecider decides its step count at every step: 1, then 2, ...
type stepDecider struct{ steps int }

func (a *stepDecider) Step(e *Env) {
	a.steps++
	e.Decide(a.steps)
}

func (a *stepDecider) Snapshot() Automaton {
	cp := *a
	return &cp
}

// doubleDecider decides 1 at every step, so its second step decides the same
// value again.
type doubleDecider struct{}

func (d *doubleDecider) Step(e *Env) { e.Decide(1) }

func (d *doubleDecider) Snapshot() Automaton { return d }

// firstStepDecider decides each of vs, in order, in its first step. It is
// an Emulator, so it can be an inner Stack layer.
type firstStepDecider struct {
	vs   []int
	done bool
}

func (a *firstStepDecider) Step(e *Env) {
	if !a.done {
		for _, v := range a.vs {
			e.Decide(v)
		}
		a.done = true
	}
}

func (a *firstStepDecider) Output() any { return nil }

// TestDoubleDecisionIsError checks the one double-decision rule in every
// place a process can decide twice: on two steps, twice in one step, and in
// two Stack layers of one step, each with a second value that differs from
// the first and with the same value again. The runner fails the run and the
// explorer reports a violation; both name the process and the two values.
func TestDoubleDecisionIsError(t *testing.T) {
	f := dist.NewFailurePattern(1)
	run := func(a Automaton) (string, error) {
		_, err := Run(Config{
			Pattern: f, History: nilHistory(),
			Program:   func(dist.ProcID, int) Automaton { return a },
			Scheduler: &RoundRobinScheduler{}, MaxSteps: 10,
		})
		if !errors.Is(err, ErrDoubleDecision) {
			return "", fmt.Errorf("err=%v, want ErrDoubleDecision", err)
		}
		return err.Error(), nil
	}
	explore := func(a Automaton) (string, error) {
		res, err := Explore(ExploreConfig{
			Pattern: f, History: nilHistory(),
			Program:  func(dist.ProcID, int) Automaton { return a },
			MaxDepth: 4, Check: noViolation,
		})
		if err != nil {
			return "", err
		}
		if res.ViolationDepth != 2 {
			return "", fmt.Errorf("violation %q at depth %d, want depth 2", res.Violation, res.ViolationDepth)
		}
		return res.Violation, nil
	}
	cases := []struct {
		name string
		want string
		got  func() (string, error)
	}{
		{"Run, on two steps", "p1 at t=1 (1, then 2)", func() (string, error) {
			return run(&stepDecider{})
		}},
		{"Run, twice in one step", "p1 at t=0 (1, then 2)", func() (string, error) {
			return run(&firstStepDecider{vs: []int{1, 2}})
		}},
		{"Run, two Stack layers", "p1 at t=0 (1, then 2)", func() (string, error) {
			return run(NewStack(&firstStepDecider{vs: []int{1}}, &firstStepDecider{vs: []int{2}}))
		}},
		{"Explore, on two steps", "p1 at t=1 (1, then 2)", func() (string, error) {
			return explore(&stepDecider{})
		}},
		{"Run, the same value on two steps", "p1 at t=1 (1, then 1)", func() (string, error) {
			return run(&doubleDecider{})
		}},
		{"Run, the same value twice in one step", "p1 at t=0 (1, then 1)", func() (string, error) {
			return run(&firstStepDecider{vs: []int{1, 1}})
		}},
		{"Run, the same value in two Stack layers", "p1 at t=0 (1, then 1)", func() (string, error) {
			return run(NewStack(&firstStepDecider{vs: []int{1}}, &firstStepDecider{vs: []int{1}}))
		}},
		{"Explore, the same value on two steps", "p1 at t=1 (1, then 1)", func() (string, error) {
			return explore(&doubleDecider{})
		}},
	}
	for _, tc := range cases {
		got, err := tc.got()
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
		} else if !strings.Contains(got, "decided twice") || !strings.Contains(got, tc.want) {
			t.Errorf("%s: %q, want a double decision naming %q", tc.name, got, tc.want)
		}
	}
}

// opDoubleDecider records an Invoke and decides at every step.
type opDoubleDecider struct{ steps int64 }

func (a *opDoubleDecider) Step(e *Env) {
	a.steps++
	e.Invoke(a.steps, OpDesc{})
	e.Decide(1)
}

// TestDoubleDecisionKeepsStepOps checks that the run a double decision fails
// still returns the failing step's op records in Result.Ops.
func TestDoubleDecisionKeepsStepOps(t *testing.T) {
	res, err := Run(Config{
		Pattern: dist.NewFailurePattern(1), History: nilHistory(),
		Program:   func(dist.ProcID, int) Automaton { return &opDoubleDecider{} },
		Scheduler: &RoundRobinScheduler{}, MaxSteps: 10,
	})
	if !errors.Is(err, ErrDoubleDecision) {
		t.Fatalf("err=%v, want ErrDoubleDecision", err)
	}
	if len(res.Ops) != 2 || res.Ops[1].Seq != 2 || res.Ops[1].T != 1 {
		t.Fatalf("ops=%+v, want the Invokes of both steps", res.Ops)
	}
}

func TestIdleTicksAdvanceTime(t *testing.T) {
	f := dist.NewFailurePattern(2)
	script := append(Idle(25), Steps(DeliverAuto, 1, 1)...)
	res, err := Run(Config{
		Pattern: f, History: nilHistory(), Program: echoProgram,
		Scheduler: &ScriptedScheduler{Script: script},
		MaxSteps:  100,
	})
	if err != nil {
		t.Fatal(err)
	}
	steps := res.Trace.Filter(func(e trace.Event) bool { return e.Kind == trace.StepKind })
	if len(steps) != 1 || steps[0].T != 25 {
		t.Fatalf("expected a single step at t=25, got %v", steps)
	}
}

// fdEcho records the FD value it observes each step.
type fdEcho struct {
	seen []any
}

func (a *fdEcho) Step(e *Env) { a.seen = append(a.seen, e.QueryFD()) }

func TestFDQueryPerStepValue(t *testing.T) {
	f := dist.NewFailurePattern(1)
	hist := HistoryFunc(func(p dist.ProcID, tm dist.Time) any { return int64(tm) * 10 })
	res, err := Run(Config{
		Pattern: f, History: hist,
		Program:   func(dist.ProcID, int) Automaton { return &fdEcho{} },
		Scheduler: &RoundRobinScheduler{}, MaxSteps: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	a := res.Automata[0].(*fdEcho)
	for i, v := range a.seen {
		if v.(int64) != int64(i)*10 {
			t.Fatalf("step %d saw %v", i, v)
		}
	}
}

func TestReplayScriptReproducesRun(t *testing.T) {
	f := dist.NewFailurePattern(3)
	orig, err := Run(Config{
		Pattern: f, History: nilHistory(), Program: echoProgram,
		Scheduler: NewRandomScheduler(99), MaxSteps: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	upTo := dist.Time(orig.Ticks - 1)
	replay, err := Run(Config{
		Pattern: f, History: nilHistory(), Program: echoProgram,
		Scheduler: &ScriptedScheduler{Script: ReplayScript(orig.Trace, upTo, 0)},
		MaxSteps:  orig.Ticks,
	})
	if err != nil {
		t.Fatal(err)
	}
	for p := dist.ProcID(1); p <= 3; p++ {
		if !trace.IndistinguishableTo(orig.Trace, replay.Trace, p, -1) {
			t.Fatalf("replay diverges for p%d", int(p))
		}
	}
}

// layered tests: a bottom emulator that counts its own steps and an app that
// decides once the emulated output passes a threshold.
type counterEmu struct{ count int }

func (c *counterEmu) Step(e *Env) { c.count++ }
func (c *counterEmu) Output() any { return c.count }

type thresholdApp struct{ decided bool }

func (a *thresholdApp) Step(e *Env) {
	if a.decided {
		return
	}
	if v, ok := e.QueryFD().(int); ok && v >= 5 {
		e.Decide(v)
		a.decided = true
	}
}

func TestStackRoutesFDThroughEmulator(t *testing.T) {
	f := dist.NewFailurePattern(2)
	prog := func(p dist.ProcID, n int) Automaton {
		return NewStack(&counterEmu{}, &thresholdApp{})
	}
	res, err := Run(Config{
		Pattern: f, History: nilHistory(), Program: prog,
		Scheduler: &RoundRobinScheduler{}, MaxSteps: 100, StopWhenDecided: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Decisions) != 2 {
		t.Fatalf("decisions: %v", res.Decisions)
	}
	for p, v := range res.Decisions {
		if v.(int) != 5 {
			t.Fatalf("p%d decided %v, want 5 (first emulated value ≥ 5)", int(p), v)
		}
	}
}

func TestStackMessageRouting(t *testing.T) {
	// Bottom layer sends on its own layer; top layer must never see it.
	f := dist.NewFailurePattern(2)
	prog := func(p dist.ProcID, n int) Automaton {
		return NewStack(&layerSender{}, &layerObserver{})
	}
	res, err := Run(Config{
		Pattern: f, History: nilHistory(), Program: prog,
		Scheduler: &RoundRobinScheduler{}, MaxSteps: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Automata {
		st := a.(*Stack)
		if st.Layer(1).(*layerObserver).sawForeign {
			t.Fatal("top layer received a bottom-layer message")
		}
		if !st.Layer(0).(*layerSender).gotReply {
			t.Fatal("bottom layer never received its peer's message")
		}
	}
}

type layerSender struct {
	sent     bool
	gotReply bool
}

func (s *layerSender) Step(e *Env) {
	if _, _, ok := e.Delivered(); ok {
		s.gotReply = true
	}
	if !s.sent {
		e.Broadcast("bottom-hello")
		s.sent = true
	}
}
func (s *layerSender) Output() any { return nil }

type layerObserver struct{ sawForeign bool }

func (o *layerObserver) Step(e *Env) {
	if payload, _, ok := e.Delivered(); ok {
		if payload == "bottom-hello" {
			o.sawForeign = true
		}
	}
}

func TestRandomSchedulerFairness(t *testing.T) {
	// Over a long run every alive process keeps stepping (bounded bypass).
	f := dist.NewFailurePattern(6)
	res, err := Run(Config{
		Pattern: f, History: nilHistory(), Program: echoProgram,
		Scheduler: NewRandomScheduler(5), MaxSteps: 3000,
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[dist.ProcID]int)
	for _, e := range res.Trace.Events() {
		if e.Kind == trace.StepKind {
			counts[e.P]++
		}
	}
	for p := dist.ProcID(1); p <= 6; p++ {
		if counts[p] < 100 {
			t.Fatalf("p%d starved: %d steps of 3000", int(p), counts[p])
		}
	}
}

func TestMessagesEventuallyDelivered(t *testing.T) {
	// Fairness of delivery: every message to a correct process is delivered.
	f := dist.NewFailurePattern(4)
	res, err := Run(Config{
		Pattern: f, History: nilHistory(), Program: echoProgram,
		Scheduler: NewRandomScheduler(11), MaxSteps: 2000, StopWhenDecided: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != ReasonAllDecided {
		t.Fatalf("run ended with %s; deliveries must unblock every decision", res.Reason)
	}
}
