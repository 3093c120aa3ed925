package register

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/sim"
	"repro/internal/trace"
)

// fullStepNode hides StoreNode's Quiescent method, so the runner computes
// every one of the node's steps: it embeds only sim.Recoverable's methods.
type fullStepNode struct{ sim.Recoverable }

// storeNodeOf unwraps a store node from a run's automaton.
func storeNodeOf(a sim.Automaton) *StoreNode {
	if w, ok := a.(fullStepNode); ok {
		return w.Recoverable.(*StoreNode)
	}
	return a.(*StoreNode)
}

// TestStoreQuiescentSkipIsInvisible runs sampled n=128 store runs under
// loss, duplication, delay, a healing partition and crash-recovery twice —
// as SimConfig builds them, where the runner skips the null steps of every
// node that is not an active client, and with every node behind
// fullStepNode, where it computes them — traced and untraced, and demands
// identical runs: steps, ticks, message and fault counters, the op log,
// decisions, the stop reason and, traced, the trace event by event. Client
// p5 crashes while active and recovers quiescent (its script dies with it);
// replica p40 is quiescent on both sides of its recovery.
func TestStoreQuiescentSkipIsInvisible(t *testing.T) {
	if testing.Short() {
		t.Skip("n=128 runs are a long test")
	}
	cfg := scaleSweepConfig(t, 0)
	f := dist.NewFailurePattern(128)
	f.CrashAt(119, 30) // a replica that stays down
	f.CrashAt(5, 50)   // a client
	f.RecoverAt(5, 200)
	f.CrashAt(40, 50) // a replica
	f.RecoverAt(40, 200)
	cfg.Pattern = f
	run, err := cfg.validate()
	if err != nil {
		t.Fatal(err)
	}
	for _, traced := range []bool{false, true} {
		t.Run(fmt.Sprintf("traced=%v", traced), func(t *testing.T) {
			skipCfg := run.simConfig()
			skipCfg.DisableTrace = !traced
			fullCfg := run.simConfig()
			fullCfg.DisableTrace = !traced
			prog := fullCfg.Program
			fullCfg.Program = func(p dist.ProcID, n int) sim.Automaton {
				return fullStepNode{prog(p, n).(sim.Recoverable)}
			}
			// The stop cursor's condition, checked in full every tick: the
			// cursor itself reads *StoreNode automata.
			c := newStoreStopCursor(run.clients, run.avail, run.masks)
			fullCfg.StopWhen = func(sn *sim.Snapshot) bool {
				for i, p := range c.clients {
					if !storeNodeOf(sn.Automaton(p)).DoneOn(c.eff[i]) {
						return false
					}
				}
				return true
			}
			skip, err := sim.NewRunner(skipCfg)
			if err != nil {
				t.Fatal(err)
			}
			full, err := sim.NewRunner(fullCfg)
			if err != nil {
				t.Fatal(err)
			}
			for seed := int64(0); seed < 2; seed++ {
				a, err := skip.Reset(seed).Run()
				if err != nil {
					t.Fatal(err)
				}
				b, err := full.Reset(seed).Run()
				if err != nil {
					t.Fatal(err)
				}
				if a.Reason != sim.ReasonStopCond {
					t.Fatalf("seed %d ended %s before every client finished", seed, a.Reason)
				}
				if a.MessagesDropped == 0 || a.MessagesDuplicated == 0 {
					t.Fatalf("seed %d: the faults never fired", seed)
				}
				if err := sameStoreRun(a, b); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if err := VerifyStoreRunReach(a, f.Correct(), run.masks); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
		})
	}
}

// sameStoreRun reports the first difference between two store runs,
// comparing everything but the automaton instances. Trace events compare
// by a canonical rendering, which shows frame payloads by their wire
// entries, not by pointer.
func sameStoreRun(a, b *sim.Result) error {
	type counts struct {
		Steps, Ticks                       int64
		Reason                             sim.StopReason
		Sent, Dropped, Duplicated, Delayed int64
		Decisions                          map[dist.ProcID]any
	}
	ca := counts{a.Steps, a.Ticks, a.Reason, a.MessagesSent, a.MessagesDropped, a.MessagesDuplicated, a.MessagesDelayed, a.Decisions}
	cb := counts{b.Steps, b.Ticks, b.Reason, b.MessagesSent, b.MessagesDropped, b.MessagesDuplicated, b.MessagesDelayed, b.Decisions}
	if !reflect.DeepEqual(ca, cb) {
		return fmt.Errorf("results differ:\n  %+v\n  %+v", ca, cb)
	}
	if !reflect.DeepEqual(a.Ops, b.Ops) {
		return fmt.Errorf("op logs differ (%d and %d records)", len(a.Ops), len(b.Ops))
	}
	if (a.Trace == nil) != (b.Trace == nil) {
		return fmt.Errorf("one run is traced, the other is not")
	}
	if a.Trace == nil {
		return nil
	}
	ea, eb := a.Trace.Events(), b.Trace.Events()
	for i := 0; i < min(len(ea), len(eb)); i++ {
		if x, y := renderEvent(ea[i]), renderEvent(eb[i]); x != y {
			return fmt.Errorf("trace event %d differs:\n  %s\n  %s", i, x, y)
		}
	}
	if len(ea) != len(eb) {
		return fmt.Errorf("traces hold %d and %d events", len(ea), len(eb))
	}
	return nil
}

// renderEvent renders every field of a trace event, a store frame payload
// by its wire entries.
func renderEvent(ev trace.Event) string {
	var b strings.Builder
	fmt.Fprintf(&b, "t=%d p%d %s delivered=%v from=p%d to=p%d layer=%d seq=%d fd=%v payload=",
		int64(ev.T), int(ev.P), ev.Kind, ev.Delivered, int(ev.From), int(ev.To), ev.Layer, ev.Seq, ev.FD)
	if f, ok := ev.Payload.(*storeFrame); ok {
		writeWireEntries(&b, f)
	} else {
		fmt.Fprintf(&b, "%v", ev.Payload)
	}
	return b.String()
}
