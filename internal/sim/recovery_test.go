package sim

import (
	"testing"

	"repro/internal/dist"
	"repro/internal/trace"
)

// beaconAutomaton broadcasts its step count every step and decides on its
// first delivered payload — a sender that keeps talking, so a recovered peer
// always has fresh traffic to learn from.
type beaconAutomaton struct {
	steps   int
	decided bool
}

func (a *beaconAutomaton) Step(e *Env) {
	a.steps++
	if payload, _, ok := e.Delivered(); ok && !a.decided {
		e.Decide(payload)
		a.decided = true
	}
	e.Broadcast(a.steps)
}

// TestRunnerRecoveryFreshAutomaton: a recovered process steps again from its
// recovery time with a brand-new automaton — volatile state lost, so its
// pre-crash decision is cleared and it re-decides from post-recovery traffic —
// and the trace records the recovery event.
func TestRunnerRecoveryFreshAutomaton(t *testing.T) {
	f := dist.NewFailurePattern(2)
	f.CrashAt(2, 10)
	f.RecoverAt(2, 30)
	res, err := Run(Config{
		Pattern: f, History: nilHistory(),
		Program:   func(dist.ProcID, int) Automaton { return &beaconAutomaton{} },
		Scheduler: &RoundRobinScheduler{}, MaxSteps: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	var recovered bool
	var postSteps int
	for _, e := range res.Trace.Events() {
		switch e.Kind {
		case trace.StepKind:
			if e.P == 2 {
				if e.T >= 10 && e.T < 30 {
					t.Fatalf("p2 stepped at t=%d inside its down interval [10,30)", int64(e.T))
				}
				if e.T >= 30 {
					postSteps++
				}
			}
		case trace.RecoverKind:
			if e.P != 2 || e.T != 30 {
				t.Fatalf("unexpected recovery event %+v", e)
			}
			recovered = true
		}
	}
	if !recovered {
		t.Fatal("no recovery event in the trace")
	}
	// The decision standing at the end is the fresh incarnation's, made from
	// post-recovery traffic (the pre-crash one was cleared at recovery).
	if v, ok := res.Decisions[2]; !ok {
		t.Fatalf("recovered p2 never re-decided (reason %s)", res.Reason)
	} else if dt := res.DecideTime[2]; dt < 30 {
		t.Fatalf("p2's decision %v stamped at t=%d, before its recovery", v, int64(dt))
	}
	// The surviving automaton instance is the fresh one: its step counter
	// counts only post-recovery steps.
	if got := res.Automata[1].(*beaconAutomaton).steps; got != postSteps {
		t.Fatalf("p2's automaton counted %d steps, want the %d post-recovery steps — the instance was not replaced", got, postSteps)
	}
}

// TestDecidedSetMatchesDecided holds Snapshot.DecidedSet to Snapshot.Decided
// at every tick of the recovery run above: p2 decides, loses its decision at
// its recovery and decides again, so the set both gains and loses a member.
func TestDecidedSetMatchesDecided(t *testing.T) {
	f := dist.NewFailurePattern(2)
	f.CrashAt(2, 10)
	f.RecoverAt(2, 30)
	var cleared, checked bool
	var prev dist.ProcSet
	_, err := Run(Config{
		Pattern: f, History: nilHistory(),
		Program:   func(dist.ProcID, int) Automaton { return &beaconAutomaton{} },
		Scheduler: &RoundRobinScheduler{}, MaxSteps: 200,
		StopWhen: func(sn *Snapshot) bool {
			var want dist.ProcSet
			for p := dist.ProcID(1); p <= 2; p++ {
				if _, ok := sn.Decided(p); ok {
					want = want.Add(p)
				}
			}
			if got := sn.DecidedSet(); got != want {
				t.Fatalf("t=%d: DecidedSet %v, Decided reports %v", int64(sn.Now()), got, want)
			}
			cleared = cleared || prev.Contains(2) && !want.Contains(2)
			prev, checked = want, true
			return false
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !checked || !cleared {
		t.Fatalf("checked=%v cleared=%v: the run never dropped p2's decision, so the recovery case went untested", checked, cleared)
	}
}

// TestRunnerTransitionOrder pins the order crashes and recoveries enter the
// trace: the pattern's own transition order. Eighteen processes crashing at
// one tick are listed by process, and a crash and another process's
// recovery at one tick list the crash first.
func TestRunnerTransitionOrder(t *testing.T) {
	const n = 20
	f := dist.NewFailurePattern(n)
	f.CrashAt(1, 2)
	f.RecoverAt(1, 7)
	f.CrashAt(2, 7)
	for p := dist.ProcID(3); p <= n; p++ {
		f.CrashAt(p, 5)
	}
	res, err := Run(Config{
		Pattern: f, History: nilHistory(),
		Program:   func(dist.ProcID, int) Automaton { return &beaconAutomaton{} },
		Scheduler: &RoundRobinScheduler{}, MaxSteps: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []trace.Event{{T: 2, P: 1, Kind: trace.CrashKind}}
	for p := dist.ProcID(3); p <= n; p++ {
		want = append(want, trace.Event{T: 5, P: p, Kind: trace.CrashKind})
	}
	want = append(want, trace.Event{T: 7, P: 2, Kind: trace.CrashKind}, trace.Event{T: 7, P: 1, Kind: trace.RecoverKind})
	var got []trace.Event
	for _, e := range res.Trace.Events() {
		if e.Kind == trace.CrashKind || e.Kind == trace.RecoverKind {
			got = append(got, trace.Event{T: e.T, P: e.P, Kind: e.Kind})
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d crash and recovery events, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d is %v p%d at t=%d, want %v p%d at t=%d", i,
				got[i].Kind, int(got[i].P), int64(got[i].T), want[i].Kind, int(want[i].P), int64(want[i].T))
		}
	}
}

// TestRunnerRecoveryWipesInbox: messages parked in a process's inbox while it
// was down die with the incarnation — the recovered process must not receive
// pre-crash sends (channels are process-to-incarnation, and a retransmitting
// sender is the protocol's job, not the channel's).
func TestRunnerRecoveryWipesInbox(t *testing.T) {
	f := dist.NewFailurePattern(2)
	f.CrashAt(2, 5)
	f.RecoverAt(2, 30)
	// p1 broadcasts at t=0 (ping parked in p2's inbox), p2 is down through
	// t=30, then steps repeatedly with delivery allowed.
	script := append(Steps(DeliverAuto, 1), Idle(34)...)
	script = append(script, Steps(DeliverAuto, 2, 2, 2, 2)...)
	res, err := Run(Config{
		Pattern: f, History: nilHistory(), Program: echoProgram,
		Scheduler: &ScriptedScheduler{Script: script}, MaxSteps: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Decisions[2]; ok {
		t.Fatal("p2 decided on a pre-crash message that should have died with the incarnation")
	}
	for _, e := range res.Trace.Events() {
		if e.Kind == trace.StepKind && e.P == 2 && e.Delivered {
			t.Fatalf("pre-crash message delivered to recovered p2 at t=%d", int64(e.T))
		}
	}
}

// TestRunnerRecoveryDeterministic: recovery is part of the scheduled run, so
// two identical lossy runs with recoveries agree on everything.
func TestRunnerRecoveryDeterministic(t *testing.T) {
	f := dist.NewFailurePattern(3)
	f.CrashAt(3, 8)
	f.RecoverAt(3, 40)
	fp := &FaultPlan{Seed: 5, Loss: 0.2, Dup: 0.2, MaxDelay: 3}
	run := func() *Result {
		res, err := Run(Config{
			Pattern: f, History: nilHistory(), Program: echoProgram,
			Scheduler: NewRandomScheduler(13), Faults: fp, MaxSteps: 600,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Steps != b.Steps || a.MessagesSent != b.MessagesSent ||
		a.MessagesDropped != b.MessagesDropped || len(a.Decisions) != len(b.Decisions) {
		t.Fatalf("recovery runs diverged: %d/%d steps, %d/%d msgs, %d/%d dropped",
			a.Steps, b.Steps, a.MessagesSent, b.MessagesSent, a.MessagesDropped, b.MessagesDropped)
	}
}

// TestOneWayPartitionRunner: an unhealed one-way cut 1→2 starves p2 (its only
// inbound edge is blocked) while p1 still hears p2 and decides.
func TestOneWayPartitionRunner(t *testing.T) {
	f := dist.NewFailurePattern(2)
	fp := &FaultPlan{Partitions: []dist.Partition{
		{A: dist.NewProcSet(1), B: dist.NewProcSet(2), From: 0, Until: dist.NoCrash, OneWay: true},
	}}
	res, err := Run(Config{
		Pattern: f, History: nilHistory(), Program: echoProgram,
		Scheduler: NewRandomScheduler(3), Faults: fp, MaxSteps: 2_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Decisions[1]; !ok {
		t.Fatal("p1 never decided — the B→A direction must flow")
	}
	if _, ok := res.Decisions[2]; ok {
		t.Fatal("p2 decided despite the A→B cut")
	}
	if res.MessagesDropped != 0 {
		t.Fatalf("one-way partition dropped %d messages; partitions must only delay", res.MessagesDropped)
	}
}

// TestCutThroughHealBoundary is the regression for the drain-slack rule: a
// partition only counts as healed-through if the heal lands in the first half
// of the horizon. Heals at or just before the horizon used to count as
// "reachable" with zero ticks left to drain parked operations.
func TestCutThroughHealBoundary(t *testing.T) {
	const horizon = 200
	mk := func(until dist.Time) *FaultPlan {
		return &FaultPlan{Partitions: []dist.Partition{
			{A: dist.NewProcSet(1), B: dist.NewProcSet(2), From: 10, Until: until},
		}}
	}
	for _, tc := range []struct {
		name  string
		until dist.Time
		cut   bool
	}{
		{"heals early", 90, false},
		{"heals at horizon/2", 100, false},
		{"heals just past horizon/2", 101, true},
		{"heals at horizon-1", 199, true},
		{"heals exactly at horizon", 200, true},
		{"heals after horizon", 500, true},
		{"never heals", dist.NoCrash, true},
	} {
		if got := mk(tc.until).CutThrough(1, 2, horizon); got != tc.cut {
			t.Errorf("%s (Until=%d): CutThrough = %v, want %v", tc.name, int64(tc.until), got, tc.cut)
		}
	}
	// A partition starting at or after the horizon blocks nothing in-run.
	late := &FaultPlan{Partitions: []dist.Partition{
		{A: dist.NewProcSet(1), B: dist.NewProcSet(2), From: horizon, Until: dist.NoCrash},
	}}
	if late.CutThrough(1, 2, horizon) {
		t.Error("a partition starting at the horizon must not cut the pair")
	}
	// One-way cuts park the request/reply exchange in either role.
	oneWay := &FaultPlan{Partitions: []dist.Partition{
		{A: dist.NewProcSet(1), B: dist.NewProcSet(2), From: 0, Until: dist.NoCrash, OneWay: true},
	}}
	if !oneWay.CutThrough(1, 2, horizon) || !oneWay.CutThrough(2, 1, horizon) {
		t.Error("a one-way partition must cut the pair in both roles")
	}
}
