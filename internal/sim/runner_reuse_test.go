package sim

import (
	"reflect"
	"testing"

	"repro/internal/dist"
)

// TestRunnerResetMatchesOneShotRuns is the contract of the sweep API: a
// reused runner with Reset(seed) must reproduce exactly the runs that
// separate one-shot Run calls with fresh schedulers produce.
func TestRunnerResetMatchesOneShotRuns(t *testing.T) {
	f := dist.NewFailurePattern(4)
	f.CrashAt(3, 30)
	mkCfg := func(seed int64) Config {
		return Config{
			Pattern: f, History: nilHistory(), Program: echoProgram,
			Scheduler: NewRandomScheduler(seed), StopWhenDecided: true,
		}
	}
	r, err := NewRunner(mkCfg(0))
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 20; seed++ {
		reused, err := r.Reset(seed).Run()
		if err != nil {
			t.Fatal(err)
		}
		oneShot, err := Run(mkCfg(seed))
		if err != nil {
			t.Fatal(err)
		}
		if reused.Steps != oneShot.Steps || reused.Ticks != oneShot.Ticks ||
			reused.MessagesSent != oneShot.MessagesSent || reused.Reason != oneShot.Reason {
			t.Fatalf("seed %d: reused run (steps=%d ticks=%d msgs=%d %s) diverges from one-shot (steps=%d ticks=%d msgs=%d %s)",
				seed, reused.Steps, reused.Ticks, reused.MessagesSent, reused.Reason,
				oneShot.Steps, oneShot.Ticks, oneShot.MessagesSent, oneShot.Reason)
		}
		for p, v := range oneShot.Decisions {
			if rv, ok := reused.Decisions[p]; !ok || rv != v {
				t.Fatalf("seed %d: p%d decided %v reused vs %v one-shot", seed, int(p), rv, v)
			}
		}
	}
}

// TestReleasedRunnerRunsAfterReset: a released runner's inbox set belongs
// to the pool, so it does not run again until a Reset takes a set anew;
// then it reproduces the run of a runner that was never released.
// Releasing twice is a no-op.
func TestReleasedRunnerRunsAfterReset(t *testing.T) {
	f := dist.NewFailurePattern(4)
	fp := &FaultPlan{Seed: 3, Loss: 0.1, Dup: 0.1, MaxDelay: 2}
	mk := func() *Runner {
		r, err := NewRunner(Config{Pattern: f, History: nilHistory(), Program: echoProgram, Faults: fp, MaxSteps: 400})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	want, err := mk().Reset(5).Run()
	if err != nil {
		t.Fatal(err)
	}
	r := mk()
	r.Release()
	if _, err := r.Run(); err == nil {
		t.Fatal("Run on a released runner without Reset succeeded")
	}
	r.Release()
	for range 2 {
		got, err := r.Reset(5).Run()
		if err != nil {
			t.Fatal(err)
		}
		if got.Steps != want.Steps || got.Ticks != want.Ticks || got.MessagesSent != want.MessagesSent ||
			got.MessagesDropped != want.MessagesDropped || !reflect.DeepEqual(got.Decisions, want.Decisions) {
			t.Fatalf("released and reset runner: steps=%d ticks=%d msgs=%d dropped=%d decisions=%v, want %d %d %d %d %v",
				got.Steps, got.Ticks, got.MessagesSent, got.MessagesDropped, got.Decisions,
				want.Steps, want.Ticks, want.MessagesSent, want.MessagesDropped, want.Decisions)
		}
		r.Release()
	}
}

// decideFirst decides its own identity at its first step.
type decideFirst struct {
	self    dist.ProcID
	decided bool
}

func (a *decideFirst) Step(e *Env) {
	if !a.decided {
		a.decided = true
		e.Decide(int(a.self))
	}
}

// TestReusedResultHoldsNoStaleDecision is the reused Result's contract: Run
// returns the runner's one Result, and its Decisions and DecideTime hold
// exactly the run's deciders, so a process that decided in the last run
// and not in this one leaves no entry behind. Runs of three ticks let at
// most three of the four processes decide, so consecutive seeds decide
// different sets.
func TestReusedResultHoldsNoStaleDecision(t *testing.T) {
	mkCfg := func(seed int64) Config {
		return Config{
			Pattern: dist.NewFailurePattern(4), History: nilHistory(),
			Program:   func(p dist.ProcID, n int) Automaton { return &decideFirst{self: p} },
			Scheduler: NewRandomScheduler(seed), MaxSteps: 3,
		}
	}
	r, err := NewRunner(mkCfg(0))
	if err != nil {
		t.Fatal(err)
	}
	var last *Result
	var lastDeciders dist.ProcSet
	dropped := 0 // processes that decided in one run and not in the next
	for seed := int64(0); seed < 20; seed++ {
		res, err := r.Reset(seed).Run()
		if err != nil {
			t.Fatal(err)
		}
		if last != nil && res != last {
			t.Fatalf("seed %d: Run returned a new Result", seed)
		}
		last = res
		want, err := Run(mkCfg(seed))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Decisions, want.Decisions) || !reflect.DeepEqual(res.DecideTime, want.DecideTime) {
			t.Fatalf("seed %d: reused result decided %v at %v, a fresh runner %v at %v",
				seed, res.Decisions, res.DecideTime, want.Decisions, want.DecideTime)
		}
		var deciders dist.ProcSet
		for p := range res.Decisions {
			deciders = deciders.Add(p)
		}
		dropped += lastDeciders.Minus(deciders).Len()
		lastDeciders = deciders
	}
	if dropped == 0 {
		t.Fatal("no process decided in one run and not in the next: the scenario tests nothing")
	}
}

func TestRunnerRunTwiceWithoutResetFails(t *testing.T) {
	r, err := NewRunner(Config{
		Pattern: dist.NewFailurePattern(2), History: nilHistory(), Program: echoProgram,
		Scheduler: &RoundRobinScheduler{}, MaxSteps: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err == nil {
		t.Fatal("second Run without Reset must fail")
	}
	if _, err := r.Reset(0).Run(); err != nil {
		t.Fatalf("Run after Reset: %v", err)
	}
}

// TestStepsCountsExecutedSteps pins the honest accounting: Steps counts
// automaton steps, Ticks counts elapsed time including idle ticks.
func TestStepsCountsExecutedSteps(t *testing.T) {
	f := dist.NewFailurePattern(2)
	script := append(Idle(10), Steps(DeliverAuto, 3, 1, 2)...)
	res, err := Run(Config{
		Pattern: f, History: nilHistory(), Program: echoProgram,
		Scheduler: &ScriptedScheduler{Script: script}, MaxSteps: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 6 {
		t.Fatalf("Steps = %d, want 6 executed steps", res.Steps)
	}
	if res.Ticks != 16 {
		t.Fatalf("Ticks = %d, want 16 (10 idle + 6 steps)", res.Ticks)
	}
}

// TestValuesEqualUncomparableInsideComparable pins the DeepEqual fallback: a
// comparable static type can hold uncomparable values in interface fields,
// which == rejects at runtime.
func TestValuesEqualUncomparableInsideComparable(t *testing.T) {
	type boxed struct{ V any }
	a, b := boxed{V: []int{1, 2}}, boxed{V: []int{1, 2}}
	if !valuesEqual(a, b) {
		t.Fatal("equal slices inside interface fields must compare equal")
	}
	if valuesEqual(a, boxed{V: []int{1, 3}}) {
		t.Fatal("distinct slices inside interface fields must compare unequal")
	}
	if !valuesEqual(boxed{V: 7}, boxed{V: 7}) || valuesEqual(boxed{V: 7}, boxed{V: 8}) {
		t.Fatal("comparable fast path broken")
	}
	if !valuesEqual(nil, nil) || valuesEqual(nil, 1) || valuesEqual([]int{1}, 1) {
		t.Fatal("nil/type-mismatch handling broken")
	}
	if !valuesEqual([]int{1}, []int{1}) {
		t.Fatal("non-comparable DeepEqual path broken")
	}
	// Top-level pointers keep DeepEqual's pointee semantics, not identity.
	x, y := 5, 5
	if !valuesEqual(&x, &y) {
		t.Fatal("distinct pointers to equal values must compare equal")
	}
	y = 6
	if valuesEqual(&x, &y) {
		t.Fatal("pointers to distinct values must compare unequal")
	}
}

// TestInboxBlockedHeadStaysBounded pins the compaction bound: with the
// oldest message never matched while later traffic flows, tombstones behind
// the blocked head must be reclaimed, keeping the buffer O(backlog) instead
// of O(messages ever received).
func TestInboxBlockedHeadStaysBounded(t *testing.T) {
	prog := func(p dist.ProcID, n int) Automaton {
		return &sendScript{payloads: func() []any {
			ps := []any{"pinned"}
			for i := 0; i < 400; i++ {
				ps = append(ps, i)
			}
			return ps
		}()}
	}
	unpinned := func(m *Message) bool { return m.Payload != "pinned" }
	var script []Choice
	for i := 0; i < 401; i++ { // p1 sends one message per step
		script = append(script, Choice{Proc: 1, Mode: DeliverNone})
		script = append(script, Choice{Proc: 2, Mode: DeliverMatch, Match: unpinned})
	}
	r, err := NewRunner(Config{
		Pattern: dist.NewFailurePattern(2), History: nilHistory(), Program: prog,
		Scheduler: &ScriptedScheduler{Script: script}, MaxSteps: 5000, DisableTrace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	q := &r.inboxes[2]
	if q.live != 1 {
		t.Fatalf("inbox live = %d, want just the pinned message", q.live)
	}
	if len(q.buf) > 80 {
		t.Fatalf("inbox buffer holds %d entries for a backlog of 1 — tombstones are not being reclaimed", len(q.buf))
	}
}

// matchPayload builds a DeliverMatch choice for one payload value.
func matchPayload(p dist.ProcID, want any) Choice {
	return Choice{Proc: p, Mode: DeliverMatch, Match: func(m *Message) bool { return m.Payload == want }}
}

// sendScript is an automaton for inbox-order tests: p1 sends the scripted
// payloads to p2 one per step; p2 records what it receives.
type sendScript struct {
	payloads []any
	pos      int
	got      []any
}

func (a *sendScript) Step(e *Env) {
	if v, _, ok := e.Delivered(); ok {
		a.got = append(a.got, v)
	}
	if e.Self() == 1 && a.pos < len(a.payloads) {
		e.Send(2, a.payloads[a.pos])
		a.pos++
	}
}

// TestInboxMiddleRemovalKeepsOrder drives DeliverMatch deliveries out of
// FIFO order and checks that the remaining queue still delivers oldest-first
// — the tombstone path of the ring inbox.
func TestInboxMiddleRemovalKeepsOrder(t *testing.T) {
	autos := map[dist.ProcID]*sendScript{}
	prog := func(p dist.ProcID, n int) Automaton {
		a := &sendScript{payloads: []any{"a", "b", "c", "d"}}
		autos[p] = a
		return a
	}
	script := []Choice{
		{Proc: 1, Mode: DeliverNone}, {Proc: 1, Mode: DeliverNone},
		{Proc: 1, Mode: DeliverNone}, {Proc: 1, Mode: DeliverNone},
		matchPayload(2, "c"), // middle removal
		matchPayload(2, "a"), // head removal skipping the tombstone's side
		{Proc: 2, Mode: DeliverAuto},
		{Proc: 2, Mode: DeliverAuto},
	}
	_, err := Run(Config{
		Pattern: dist.NewFailurePattern(2), History: nilHistory(), Program: prog,
		Scheduler: &ScriptedScheduler{Script: script}, MaxSteps: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := autos[2].got
	want := []any{"c", "a", "b", "d"}
	if len(got) != len(want) {
		t.Fatalf("p2 received %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("p2 received %v, want %v", got, want)
		}
	}
}

// steadyState is a minimal automaton for the zero-alloc assertion: it
// queries the FD and bounces one message around without allocating itself.
type steadyState struct{ self dist.ProcID }

func (a *steadyState) Step(e *Env) {
	e.QueryFD()
	if _, from, ok := e.Delivered(); ok {
		e.Send(from, "ping")
	} else if a.self == 1 {
		e.Send(2, "ping")
	}
}

// TestRunnerSteadyStateStepIsAllocationFree pins the tentpole property: once
// a reused runner is warm, the per-step path (scheduling, delivery, FD
// query, send) performs zero heap allocations. Run construction (fresh
// automata, the result) is excluded by measuring long runs and amortizing:
// the per-step budget must stay under 0.02 allocs.
func TestRunnerSteadyStateStepIsAllocationFree(t *testing.T) {
	f := dist.NewFailurePattern(4)
	r, err := NewRunner(Config{
		Pattern:   f,
		History:   nilHistory(),
		Program:   func(p dist.ProcID, n int) Automaton { return &steadyState{self: p} },
		Scheduler: NewRandomScheduler(0), MaxSteps: 5000, DisableTrace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Reset(1).Run(); err != nil { // warm buffers
		t.Fatal(err)
	}
	seed := int64(2)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := r.Reset(seed).Run(); err != nil {
			t.Fatal(err)
		}
		seed++
	})
	perStep := allocs / 5000
	if perStep > 0.02 {
		t.Fatalf("steady-state run allocates %.1f times (%.4f/step), want ≈0/step", allocs, perStep)
	}
}

// TestRunnerBuildsAutomataOncePerRun counts Program calls: NewRunner followed
// by Reset(seed) and Run builds each process's automaton exactly once, plus
// once per recovery, and every later Reset builds a fresh set for its run
// when the automata are no Rewinders.
func TestRunnerBuildsAutomataOncePerRun(t *testing.T) {
	const n = 4
	f := dist.NewFailurePattern(n)
	f.CrashAt(2, 5)
	f.RecoverAt(2, 20)
	calls := 0
	r, err := NewRunner(Config{
		Pattern: f, History: nilHistory(),
		Program: func(p dist.ProcID, n int) Automaton {
			calls++
			return echoProgram(p, n)
		},
		MaxSteps: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 3; seed++ {
		res, err := r.Reset(seed).Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Ticks < 20 {
			t.Fatalf("seed %d ended at tick %d, before the recovery", seed, res.Ticks)
		}
		if want := int(seed) * (n + 1); calls != want {
			t.Fatalf("after run %d the Program was called %d times, want %d", seed, calls, want)
		}
	}
}

// rewindEcho is an echoAutomaton that rewinds in place, counting its
// rewinds in *rewinds.
type rewindEcho struct {
	echoAutomaton
	rewinds *int
}

func (a *rewindEcho) Rewind() {
	a.echoAutomaton = echoAutomaton{self: a.self}
	*a.rewinds++
}

// TestRunnerRewindsRewinders is TestRunnerBuildsAutomataOncePerRun for
// Rewinder automata: the Program runs only when NewRunner builds the set,
// every Reset after a run rewinds all n automata in place, and every
// recovery rewinds the recovered one. Writing into a Result's Automata
// leaves the runner's own set alone.
func TestRunnerRewindsRewinders(t *testing.T) {
	const n = 4
	f := dist.NewFailurePattern(n)
	f.CrashAt(2, 5)
	f.RecoverAt(2, 20)
	calls, rewinds := 0, 0
	r, err := NewRunner(Config{
		Pattern: f, History: nilHistory(),
		Program: func(p dist.ProcID, n int) Automaton {
			calls++
			return &rewindEcho{echoAutomaton: echoAutomaton{self: p}, rewinds: &rewinds}
		},
		MaxSteps: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 3; seed++ {
		res, err := r.Reset(seed).Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Ticks < 20 {
			t.Fatalf("seed %d ended at tick %d, before the recovery", seed, res.Ticks)
		}
		if calls != n {
			t.Fatalf("after run %d the Program was called %d times, want %d", seed, calls, n)
		}
		if want := int(seed-1)*n + int(seed); rewinds != want {
			t.Fatalf("after run %d the runner rewound %d times, want %d", seed, rewinds, want)
		}
		clear(res.Automata)
	}
}

// TestTracedRunDoesNotRegrowItsTrace: a reused traced runner sizes each
// run's trace from the last run's event count, so its per-run allocations
// exceed the untraced runner's by a constant (the trace, its event array,
// a regrowth when a run outgrows the last), not by one regrowth per
// doubling of the event count. steadyState records no ops, whose OpDesc
// payloads would box per event.
func TestTracedRunDoesNotRegrowItsTrace(t *testing.T) {
	perRun := func(traced bool) float64 {
		r, err := NewRunner(Config{
			Pattern:   dist.NewFailurePattern(4),
			History:   nilHistory(),
			Program:   func(p dist.ProcID, n int) Automaton { return &steadyState{self: p} },
			Scheduler: NewRandomScheduler(0), MaxSteps: 20000, DisableTrace: !traced,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Reset(1).Run() // warm buffers and the size hint
		if err != nil {
			t.Fatal(err)
		}
		if traced && res.Trace.Len() < 20000 {
			t.Fatalf("warm-up run recorded %d events, want ≥ 20000", res.Trace.Len())
		}
		seed := int64(2)
		return testing.AllocsPerRun(10, func() {
			if _, err := r.Reset(seed).Run(); err != nil {
				t.Fatal(err)
			}
			seed++
		})
	}
	traced, untraced := perRun(true), perRun(false)
	if extra := traced - untraced; extra > 4 {
		t.Fatalf("a traced run allocates %.1f times, an untraced one %.1f: %.1f extra, want ≤ 4", traced, untraced, extra)
	}
}
