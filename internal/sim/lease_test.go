package sim

import (
	"testing"

	"repro/internal/dist"
)

// leaseProbe records what the runtime told it about payload ownership and
// op recording — the observable half of the send-buffer lease contract.
type leaseProbe struct {
	self        dist.ProcID
	sawOwned    bool // a delivery with DeliveredOwned() == true
	sawShared   bool // a delivery with DeliveredOwned() == false
	opsRecorded bool
}

func (a *leaseProbe) Step(e *Env) {
	a.opsRecorded = e.OpsRecorded()
	if _, from, ok := e.Delivered(); ok {
		if e.DeliveredOwned() {
			a.sawOwned = true
		} else {
			a.sawShared = true
		}
		e.Send(from, "pong")
	} else {
		if e.DeliveredOwned() {
			a.sawOwned = true // must never fire: no delivery, nothing to own
		}
		if a.self == 1 {
			e.Send(2, "ping")
		}
	}
}

func (a *leaseProbe) Snapshot() Automaton {
	c := *a
	return &c
}

func runLeaseProbes(t *testing.T, disableTrace, omitMessages bool) []*leaseProbe {
	t.Helper()
	probes := make([]*leaseProbe, 2)
	res, err := Run(Config{
		Pattern: dist.NewFailurePattern(2),
		History: nilHistory(),
		Program: func(p dist.ProcID, n int) Automaton {
			probes[p-1] = &leaseProbe{self: p}
			return probes[p-1]
		},
		Scheduler:    NewRandomScheduler(1),
		MaxSteps:     200,
		DisableTrace: disableTrace,
		OmitMessages: omitMessages,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MessagesSent == 0 {
		t.Fatal("probe run sent no messages — the contract was never exercised")
	}
	return probes
}

// TestRunnerGrantsPayloadOwnershipOnlyUntraced pins the lease contract on
// the Runner: ownership of delivered payloads is granted exactly when no
// trace records messages (nothing else retains the payload), and op records
// are muted exactly when tracing is off.
func TestRunnerGrantsPayloadOwnershipOnlyUntraced(t *testing.T) {
	for _, p := range runLeaseProbes(t, false, false) {
		if p.sawOwned {
			t.Fatalf("p%d was granted payload ownership on a traced run", int(p.self))
		}
		if !p.opsRecorded {
			t.Fatalf("p%d saw ops muted on a traced run", int(p.self))
		}
	}
	untraced := runLeaseProbes(t, true, false)
	for _, p := range untraced {
		if p.sawShared {
			t.Fatalf("p%d was denied payload ownership on an untraced run", int(p.self))
		}
		if p.opsRecorded {
			t.Fatalf("p%d saw ops recorded on an untraced run", int(p.self))
		}
	}
	if !untraced[0].sawOwned && !untraced[1].sawOwned {
		t.Fatal("no probe ever observed an owned delivery")
	}
	messageFree := runLeaseProbes(t, false, true)
	for _, p := range messageFree {
		if p.sawShared {
			t.Fatalf("p%d was denied payload ownership on a run whose trace omits messages", int(p.self))
		}
		if !p.opsRecorded {
			t.Fatalf("p%d saw ops muted on a run whose trace omits messages", int(p.self))
		}
	}
	if !messageFree[0].sawOwned && !messageFree[1].sawOwned {
		t.Fatal("no probe ever observed an owned delivery on a message-free trace")
	}
}

// TestExplorerNeverGrantsPayloadOwnership pins the explorer side: its
// branches share pending messages, so no delivery may ever transfer
// ownership — a recycled payload would mutate sibling states.
func TestExplorerNeverGrantsPayloadOwnership(t *testing.T) {
	f := dist.NewFailurePattern(2)
	res, err := Explore(ExploreConfig{
		Pattern:  f,
		History:  HistoryFunc(func(dist.ProcID, dist.Time) any { return nil }),
		Program:  func(p dist.ProcID, n int) Automaton { return &leaseProbe{self: p} },
		MaxDepth: 6,
		Check:    func(map[dist.ProcID]any) string { return "" },
		CheckAutomata: func(automata []Automaton) string {
			for _, a := range automata {
				if probe, ok := a.(*leaseProbe); ok && probe.sawOwned {
					return "explorer granted payload ownership"
				}
			}
			return ""
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != "" {
		t.Fatal(res.Violation)
	}
	if res.StatesVisited < 10 {
		t.Fatalf("exploration too shallow to exercise deliveries: %d states", res.StatesVisited)
	}
}

// leasedPayload is a RefCounted payload whose references are tallied in a
// counter shared by the whole run: the sender pre-counts one reference per
// send, and every AddRef/DropRef the runtime issues moves the tally.
type leasedPayload struct{ refs *int }

func (p leasedPayload) AddRef()  { *p.refs++ }
func (p leasedPayload) DropRef() { *p.refs-- }

// leaseSender has p1 send a leased payload to p2 on every step.
type leaseSender struct {
	self dist.ProcID
	refs *int
}

func (a *leaseSender) Step(e *Env) {
	if a.self == 1 {
		*a.refs++
		e.Send(2, leasedPayload{refs: a.refs})
	}
}

func (a *leaseSender) Snapshot() Automaton {
	c := *a
	return &c
}

// TestRunnerResetReleasesInFlightLeases: payloads still parked in an inbox
// when a run stops give their references back at Reset, as at a recovery,
// so a payload pool does not leak a slot per message left in flight. p2 is
// crashed from the start, so every payload p1 sends is still parked when
// the run stops. A traced run never grants ownership, and its payloads are
// left alone.
func TestRunnerResetReleasesInFlightLeases(t *testing.T) {
	for _, traced := range []bool{false, true} {
		refs := 0
		f := dist.NewFailurePattern(2)
		f.CrashAt(2, 0)
		r, err := NewRunner(Config{
			Pattern: f,
			History: nilHistory(),
			Program: func(p dist.ProcID, n int) Automaton {
				return &leaseSender{self: p, refs: &refs}
			},
			Scheduler:    NewRandomScheduler(1),
			MaxSteps:     20,
			DisableTrace: !traced,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Run(); err != nil {
			t.Fatal(err)
		}
		parked := refs
		if parked == 0 {
			t.Fatalf("traced=%v: no payload left in flight — the release was never exercised", traced)
		}
		r.Reset(2)
		switch {
		case !traced && refs != 0:
			t.Fatalf("untraced run: %d of %d in-flight payload references leaked across Reset", refs, parked)
		case traced && refs != parked:
			t.Fatalf("traced run: Reset moved the reference count %d → %d on payloads it never owned", parked, refs)
		}
	}
}
