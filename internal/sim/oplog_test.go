package sim

import (
	"testing"

	"repro/internal/dist"
	"repro/internal/trace"
)

// opBeacon broadcasts every step, brackets every delivery in an
// Invoke/Return pair, decides on its third delivery and emulates a counter:
// a run of it records every kind of trace event.
type opBeacon struct{ steps, delivered int }

func (a *opBeacon) Step(e *Env) {
	a.steps++
	if payload, from, ok := e.Delivered(); ok {
		a.delivered++
		e.Invoke(int64(a.steps), OpDesc{Key: int(from), Kind: 1, Arg: int64(payload.(int))})
		e.Return(int64(a.steps), OpDesc{Key: int(from), Kind: 1, Ret: int64(a.delivered)})
		if a.delivered == 3 {
			e.Decide(payload)
		}
	}
	e.Broadcast(a.steps)
}

func (a *opBeacon) Output() any { return a.delivered / 4 }

// beaconRunner builds a runner of opBeacons under crash, recovery, loss,
// duplication and delay, traced or not.
func beaconRunner(t *testing.T, traced bool) *Runner {
	t.Helper()
	f := dist.NewFailurePattern(4)
	f.CrashAt(3, 20)
	f.RecoverAt(3, 60)
	f.CrashAt(4, 90)
	r, err := NewRunner(Config{
		Pattern: f, History: nilHistory(),
		Program:      func(dist.ProcID, int) Automaton { return &opBeacon{} },
		Faults:       &FaultPlan{Seed: 3, Loss: 0.1, Dup: 0.1, MaxDelay: 2},
		MaxSteps:     400,
		DisableTrace: !traced,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// traceOps reads a trace's Invoke/Return events back into op records.
func traceOps(tr *trace.Trace) []OpEvent {
	var ops []OpEvent
	for _, e := range tr.Events() {
		if e.Kind == trace.InvokeKind || e.Kind == trace.ReturnKind {
			ops = append(ops, OpEvent{T: e.T, P: e.P, Seq: e.Seq, Return: e.Kind == trace.ReturnKind, Op: e.Payload.(OpDesc)})
		}
	}
	return ops
}

func sameOps(t *testing.T, what string, got, want []OpEvent) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d op records, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: op record %d is %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

// TestOpLogMatchesTrace: on the same seed, an untraced run's op log is the
// traced run's Invoke/Return events, field for field, and the run itself is
// identical. Both runners are reused across seeds, so every Reset must
// start an empty log, and a recovered process keeps its pre-crash records.
func TestOpLogMatchesTrace(t *testing.T) {
	traced, untraced := beaconRunner(t, true), beaconRunner(t, false)
	for seed := int64(0); seed < 8; seed++ {
		a, err := traced.Reset(seed).Run()
		if err != nil {
			t.Fatal(err)
		}
		want := traceOps(a.Trace)
		sameOps(t, "traced run's log", a.Ops, want)
		b, err := untraced.Reset(seed).Run()
		if err != nil {
			t.Fatal(err)
		}
		if a.Steps != b.Steps || a.Ticks != b.Ticks || a.Reason != b.Reason || a.MessagesSent != b.MessagesSent {
			t.Fatalf("seed %d: runs differ: traced %d steps %d ticks %s %d msgs, untraced %d/%d/%s/%d",
				seed, a.Steps, a.Ticks, a.Reason, a.MessagesSent, b.Steps, b.Ticks, b.Reason, b.MessagesSent)
		}
		sameOps(t, "untraced run's log", b.Ops, want)
		var before, after bool
		for _, op := range b.Ops {
			before = before || op.P == 3 && op.T < 20
			after = after || op.P == 3 && op.T >= 60
		}
		if !before || !after {
			t.Fatalf("seed %d: p3's records before its crash (%v) and after its recovery (%v) must both be in the log", seed, before, after)
		}
	}
}
