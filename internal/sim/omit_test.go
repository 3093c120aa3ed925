package sim

import (
	"reflect"
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
	if payload, _, ok := e.Delivered(); ok {
		a.delivered++
		e.Invoke(int64(a.steps), payload)
		e.Return(int64(a.steps), a.delivered)
		if a.delivered == 3 {
			e.Decide(payload)
		}
	}
	e.Broadcast(a.steps)
}

func (a *opBeacon) Output() any { return a.delivered / 4 }

// omitRunner builds a runner of opBeacons under crash, recovery, loss,
// duplication and delay, with or without message events in its trace.
func omitRunner(t *testing.T, omit bool) *Runner {
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
		OmitMessages: omit,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestOmitMessagesTrace: on the same seed, a trace without message events
// is the full trace with its Step, Send and Drop events filtered out, event
// for event, and the run's counters are identical — leaving messages out
// of the trace changes nothing about the run.
func TestOmitMessagesTrace(t *testing.T) {
	full, omit := omitRunner(t, false), omitRunner(t, true)
	kinds := map[trace.Kind]bool{}
	for seed := int64(0); seed < 8; seed++ {
		a, err := full.Reset(seed).Run()
		if err != nil {
			t.Fatal(err)
		}
		b, err := omit.Reset(seed).Run()
		if err != nil {
			t.Fatal(err)
		}
		if a.Steps != b.Steps || a.Ticks != b.Ticks || a.Reason != b.Reason ||
			a.MessagesSent != b.MessagesSent || a.MessagesDropped != b.MessagesDropped ||
			a.MessagesDuplicated != b.MessagesDuplicated || a.MessagesDelayed != b.MessagesDelayed ||
			!reflect.DeepEqual(a.Decisions, b.Decisions) {
			t.Fatalf("seed %d: results differ: full %d steps %d msgs %d drops %d dups, message-free %d/%d/%d/%d",
				seed, a.Steps, a.MessagesSent, a.MessagesDropped, a.MessagesDuplicated,
				b.Steps, b.MessagesSent, b.MessagesDropped, b.MessagesDuplicated)
		}
		want := a.Trace.Filter(func(e trace.Event) bool {
			kinds[e.Kind] = true
			return e.Kind != trace.StepKind && e.Kind != trace.SendKind && e.Kind != trace.DropKind
		})
		got := b.Trace.Events()
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d events without messages, want %d", seed, len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("seed %d: event %d is %+v, want %+v", seed, i, got[i], want[i])
			}
		}
	}
	for k := trace.StepKind; k <= trace.RecoverKind; k++ {
		if !kinds[k] {
			t.Fatalf("no %s event in any full trace: the comparison never covered it", k)
		}
	}
}

// TestOmitMessagesNeedsTrace: a trace without messages needs a trace, and
// asking for both is a configuration error, not a panic.
func TestOmitMessagesNeedsTrace(t *testing.T) {
	_, err := NewRunner(Config{
		Pattern: dist.NewFailurePattern(2), History: nilHistory(), Program: echoProgram,
		DisableTrace: true, OmitMessages: true,
	})
	if err == nil {
		t.Fatal("NewRunner accepted OmitMessages together with DisableTrace")
	}
}
