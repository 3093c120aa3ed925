package sim

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/dist"
)

// pulseAutomaton owes a number of sends (work) and pays one per step,
// around a ring. A delivery of a payload above 1 owes one more send, and
// the second delivery decides. It is quiescent exactly when it owes
// nothing: a null step then changes nothing, sends nothing, records no op,
// queries no failure detector and decides nothing, and its emulated output
// (half its deliveries) moves only on deliveries. steps counts the Step
// calls the runner makes, outside the automaton's state, so a test can see
// that steps were skipped.
type pulseAutomaton struct {
	work, got int
	decided   bool
	rework    int // the work Recover leaves a recovered instance
	steps     *int
}

func (a *pulseAutomaton) Step(e *Env) {
	*a.steps++
	if v, _, ok := e.Delivered(); ok {
		a.got++
		if v.(int) > 1 {
			a.work++
		}
		if !a.decided && a.got >= 2 {
			e.Decide(a.got)
			a.decided = true
		}
	}
	if a.work > 0 {
		e.QueryFD()
		e.Invoke(int64(a.got), OpDesc{Arg: int64(a.work)})
		e.Send(dist.ProcID(int(e.Self())%e.N()+1), a.work)
		a.work--
	}
}

func (a *pulseAutomaton) Output() any     { return a.got / 2 }
func (a *pulseAutomaton) Recover()        { a.work = a.rework }
func (a *pulseAutomaton) Quiescent() bool { return a.work == 0 }

// stepAll hides a pulse's Quiescent method, so the runner computes every
// one of its steps: it embeds only the methods of recoverableEmulator.
type stepAll struct{ recoverableEmulator }

type recoverableEmulator interface {
	Emulator
	Recover()
}

// pulseOf unwraps a pulse from a result's automaton.
func pulseOf(a Automaton) *pulseAutomaton {
	if w, ok := a.(stepAll); ok {
		return w.recoverableEmulator.(*pulseAutomaton)
	}
	return a.(*pulseAutomaton)
}

// TestQuiescentSkipIsInvisible runs the same seeds with pulse automata that
// report quiescence and with the same automata behind stepAll, traced and
// untraced, under loss, duplication, delay, a partition and two recoveries,
// and demands identical runs: steps, ticks, message and fault counters,
// the op log, decisions, the stop reason and the trace event by event. p2
// owes nothing when it crashes and owes work after it recovers; p4 owes work
// when it crashes and nothing after. The skipping runs must compute fewer
// steps than they count.
func TestQuiescentSkipIsInvisible(t *testing.T) {
	const n = 4
	f := dist.NewFailurePattern(n)
	f.CrashAt(2, 120)
	f.RecoverAt(2, 150)
	f.CrashAt(4, 30)
	f.RecoverAt(4, 60)
	work := [n + 1]int{1: 0, 2: 3, 3: 1, 4: 40}
	rework := [n + 1]int{2: 5}
	fp := &FaultPlan{
		Seed: 5, Loss: 0.05, Dup: 0.1, MaxDelay: 3,
		Partitions: []dist.Partition{{A: dist.NewProcSet(1, 2), B: dist.NewProcSet(3, 4), From: 40, Until: 90}},
	}
	// history answers with the tick, so a query shows in the trace.
	history := HistoryFunc(func(p dist.ProcID, t dist.Time) any { return int64(t) })

	run := func(hide, traced bool, seeds int64) (res []*Result, computed int, flips [2]bool) {
		steps := 0
		cfg := Config{
			Pattern: f, History: history,
			Program: func(p dist.ProcID, _ int) Automaton {
				a := &pulseAutomaton{work: work[p], rework: rework[p], steps: &steps}
				if hide {
					return stepAll{a}
				}
				return a
			},
			Scheduler: NewRandomScheduler(1), Faults: fp,
			MaxSteps:     600,
			DisableTrace: !traced,
			// Record whether p2 and p4 were quiescent just before their
			// crashes and just after their recoveries.
			StopWhen: func(s *Snapshot) bool {
				quiet := func(p dist.ProcID) bool { return pulseOf(s.Automaton(p)).Quiescent() }
				switch s.Now() {
				case 0:
					flips = [2]bool{}
				case 119:
					flips[0] = quiet(2)
				case 150:
					flips[0] = flips[0] && !quiet(2)
				case 29:
					flips[1] = !quiet(4)
				case 60:
					flips[1] = flips[1] && quiet(4)
				}
				return false
			},
		}
		r, err := NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var saw [2]bool
		for seed := int64(0); seed < seeds; seed++ {
			got, err := r.Reset(seed).Run()
			if err != nil {
				t.Fatal(err)
			}
			res = append(res, got)
			saw[0] = saw[0] || flips[0]
			saw[1] = saw[1] || flips[1]
		}
		return res, steps, saw
	}

	const seeds = 8
	for _, traced := range []bool{false, true} {
		t.Run(fmt.Sprintf("traced=%v", traced), func(t *testing.T) {
			skip, computed, flips := run(false, traced, seeds)
			full, fullComputed, _ := run(true, traced, seeds)
			var counted int64
			for i := range skip {
				if err := sameRun(skip[i], full[i]); err != nil {
					t.Fatalf("seed %d: %v", i, err)
				}
				counted += skip[i].Steps
			}
			if fullComputed != int(counted) {
				t.Fatalf("without Quiescent the runner computed %d steps, the results count %d", fullComputed, counted)
			}
			if computed >= fullComputed {
				t.Fatalf("with Quiescent the runner computed %d of %d steps: nothing was skipped", computed, fullComputed)
			}
			if !flips[0] || !flips[1] {
				t.Fatalf("recoveries never flipped quiescence (quiet→active %v, active→quiet %v): the scenario tests nothing", flips[0], flips[1])
			}
		})
	}
}

// sameRun reports the first difference between two results, comparing
// everything but the automaton instances.
func sameRun(a, b *Result) error {
	type counts struct {
		Steps, Ticks                       int64
		Reason                             StopReason
		Sent, Dropped, Duplicated, Delayed int64
		Ops                                int
		Decisions                          map[dist.ProcID]any
		DecideTime                         map[dist.ProcID]dist.Time
	}
	ca := counts{a.Steps, a.Ticks, a.Reason, a.MessagesSent, a.MessagesDropped, a.MessagesDuplicated, a.MessagesDelayed, len(a.Ops), a.Decisions, a.DecideTime}
	cb := counts{b.Steps, b.Ticks, b.Reason, b.MessagesSent, b.MessagesDropped, b.MessagesDuplicated, b.MessagesDelayed, len(b.Ops), b.Decisions, b.DecideTime}
	if !reflect.DeepEqual(ca, cb) {
		return fmt.Errorf("results differ:\n  %+v\n  %+v", ca, cb)
	}
	if !reflect.DeepEqual(a.Ops, b.Ops) {
		return fmt.Errorf("op logs differ")
	}
	if (a.Trace == nil) != (b.Trace == nil) {
		return fmt.Errorf("one run is traced, the other is not")
	}
	if a.Trace == nil {
		return nil
	}
	ea, eb := a.Trace.Events(), b.Trace.Events()
	for i := 0; i < min(len(ea), len(eb)); i++ {
		if !reflect.DeepEqual(ea[i], eb[i]) {
			return fmt.Errorf("trace event %d differs: %+v vs %+v", i, ea[i], eb[i])
		}
	}
	if len(ea) != len(eb) {
		return fmt.Errorf("traces hold %d and %d events", len(ea), len(eb))
	}
	return nil
}
