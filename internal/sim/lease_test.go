package sim

import (
	"fmt"
	"testing"

	"repro/internal/dist"
)

// leaseProbe records what the runtime told it about payload ownership —
// the observable half of the send-buffer lease contract.
type leaseProbe struct {
	self      dist.ProcID
	sawOwned  bool // a delivery with DeliveredOwned() == true
	sawShared bool // a delivery with DeliveredOwned() == false
}

func (a *leaseProbe) Step(e *Env) {
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

func runLeaseProbes(t *testing.T, disableTrace bool) []*leaseProbe {
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
// trace records messages (nothing else retains the payload).
func TestRunnerGrantsPayloadOwnershipOnlyUntraced(t *testing.T) {
	for _, p := range runLeaseProbes(t, false) {
		if p.sawOwned {
			t.Fatalf("p%d was granted payload ownership on a traced run", int(p.self))
		}
	}
	untraced := runLeaseProbes(t, true)
	for _, p := range untraced {
		if p.sawShared {
			t.Fatalf("p%d was denied payload ownership on an untraced run", int(p.self))
		}
	}
	if !untraced[0].sawOwned && !untraced[1].sawOwned {
		t.Fatal("no probe ever observed an owned delivery")
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
// counter shared by the whole run: every AddRef/DropRef the runtime issues
// moves the tally.
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
		e.Send(2, leasedPayload{refs: a.refs})
	}
}

func (a *leaseSender) Snapshot() Automaton {
	c := *a
	return &c
}

// TestRunnerResetReleasesInFlightLeases: payloads still parked in an inbox
// when a run stops give their references back at Reset, as at a recovery,
// and at Release, so a payload pool does not leak a slot per message left
// in flight. p2 is crashed from the start, so every payload p1 sends is
// still parked when the run stops, and on an untraced run Send counted one
// reference for each. A traced run counts no reference, and its payloads
// are left alone. Release also clears every buffer of the set it gives
// back up to its capacity, so the pooled set keeps no payload alive.
func TestRunnerResetReleasesInFlightLeases(t *testing.T) {
	for _, end := range []string{"Reset", "Release"} {
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
			parked := r.inboxes[2].live
			if parked == 0 {
				t.Fatalf("traced=%v: no payload left in flight — the release was never exercised", traced)
			}
			switch {
			case !traced && refs != parked:
				t.Fatalf("untraced run: Send counted %d references for %d parked payloads", refs, parked)
			case traced && refs != 0:
				t.Fatalf("traced run: Send counted %d references on payloads it never leases", refs)
			}
			set := r.set
			if end == "Reset" {
				r.Reset(2)
			} else {
				r.Release()
			}
			if refs != 0 {
				t.Fatalf("traced=%v: %d references of %d parked payloads left after %s", traced, refs, parked, end)
			}
			if end == "Reset" {
				continue
			}
			for p, q := range set.q {
				if len(q.buf) != 0 || q.live != 0 {
					t.Fatalf("traced=%v: released p%d inbox holds %d entries (%d live)", traced, p, len(q.buf), q.live)
				}
				for i, e := range q.buf[:cap(q.buf)] {
					if e.msg.Payload != nil {
						t.Fatalf("traced=%v: released p%d inbox keeps a payload in slot %d of %d", traced, p, i, cap(q.buf))
					}
				}
			}
		}
	}
}

// countedPayload is a pooled RefCounted test payload that keeps its own
// books: stats counts the payloads its pool ever made and every AddRef and
// DropRef, and home marks a payload back in its pool, so delivering one
// shows that it went back while a copy was still queued.
type countedPayload struct {
	refs  int
	home  bool
	born  bool
	pool  *Pool[countedPayload]
	stats *leaseStats
}

type leaseStats struct {
	allocs, adds, drops int
	errs                []string
}

func (p *countedPayload) AddRef() { p.refs++; p.stats.adds++ }
func (p *countedPayload) DropRef() {
	p.stats.drops++
	if p.refs--; p.refs < 0 {
		p.stats.errs = append(p.stats.errs, "a reference dropped below zero")
	}
	if p.refs == 0 {
		p.home = true
		p.pool.Put(p)
	}
}

// leaseCounted leases a payload from e's pool, counting the ones it makes.
func leaseCounted(e *Env, st *leaseStats) *countedPayload {
	pool := PoolOf[countedPayload](e)
	p := pool.Get()
	if !p.born {
		st.allocs++
	}
	*p = countedPayload{born: true, pool: pool, stats: st}
	return p
}

// countingNode leases one payload per step and sends it by turns to one
// process, to the others, to all, or nowhere (it goes straight back), after
// two sends to processes outside 1..n that must count nothing. It drops its
// reference to every owned delivery.
type countingNode struct {
	steps int
	st    *leaseStats
}

func (a *countingNode) Step(e *Env) {
	if payload, _, ok := e.Delivered(); ok {
		p := payload.(*countedPayload)
		if p.home {
			a.st.errs = append(a.st.errs, "delivered a payload that is back in its pool")
		}
		if e.DeliveredOwned() {
			p.DropRef()
		}
	}
	a.steps++
	p := leaseCounted(e, a.st)
	e.Send(0, p)
	e.Send(dist.ProcID(e.N()+1), p)
	if p.refs != 0 {
		a.st.errs = append(a.st.errs, fmt.Sprintf("a send outside 1..%d counted %d references", e.N(), p.refs))
	}
	switch a.steps % 4 {
	case 0:
		e.Send(dist.ProcID(a.steps%e.N()+1), p)
	case 1:
		e.Broadcast(p)
	case 2:
		e.BroadcastAll(p)
	case 3:
		p.home = true
		p.pool.Put(p)
	}
}

// countedPoolOf returns the countedPayload pool of set s and its length
// (nil and 0 before the first lease).
func countedPoolOf(s *inboxSet) (*Pool[countedPayload], int) {
	for _, p := range s.pools.all {
		if p, ok := p.(*Pool[countedPayload]); ok {
			return p, len(p.free)
		}
	}
	return nil, 0
}

// TestSendCountsPooledPayloads holds sim's payload lease to its books on
// untraced runs under loss, duplication and delay with a crash-recovery
// (whose wipe discards queued copies): at every Reset after a Run, and at
// the Release after the last Run, every payload is home in the runner's pool
// exactly once, and the pool holds as many as it ever made. A payload put
// back while still queued, or one that never comes back, breaks the books.
// A traced run counts no reference at all.
func TestSendCountsPooledPayloads(t *testing.T) {
	f := dist.NewFailurePattern(4)
	f.CrashAt(3, 30)
	f.RecoverAt(3, 80)
	for _, traced := range []bool{false, true} {
		st := &leaseStats{}
		r, err := NewRunner(Config{
			Pattern:      f,
			History:      nilHistory(),
			Program:      func(dist.ProcID, int) Automaton { return &countingNode{st: st} },
			MaxSteps:     300,
			Faults:       &FaultPlan{Seed: 9, Loss: 0.1, Dup: 0.1, MaxDelay: 4},
			DisableTrace: !traced,
		})
		if err != nil {
			t.Fatal(err)
		}
		set := r.set
		_, base := countedPoolOf(set) // a set from an earlier runner may bring some
		// books checks that every payload made so far is home exactly once.
		books := func(when string) {
			t.Helper()
			for _, e := range st.errs {
				t.Fatalf("traced=%v, %s: %s", traced, when, e)
			}
			if traced {
				if st.adds != 0 || st.drops != 0 {
					t.Fatalf("traced run, %s: %d AddRef and %d DropRef calls, want none", when, st.adds, st.drops)
				}
				return
			}
			pool, n := countedPoolOf(set)
			if n != base+st.allocs {
				t.Fatalf("%s: the pool holds %d payloads, want %d (%d made)", when, n, base+st.allocs, st.allocs)
			}
			if pool == nil {
				return
			}
			seen := map[*countedPayload]bool{}
			for _, p := range pool.free {
				if seen[p] {
					t.Fatalf("%s: the pool holds a payload twice", when)
				}
				seen[p] = true
			}
		}
		var dropped, duped, delayed int64
		for seed := int64(0); seed < 6; seed++ {
			r.Reset(seed)
			books(fmt.Sprintf("at the Reset before seed %d", seed))
			res, err := r.Run()
			if err != nil {
				t.Fatal(err)
			}
			dropped += res.MessagesDropped
			duped += res.MessagesDuplicated
			delayed += res.MessagesDelayed
		}
		if dropped == 0 || duped == 0 || delayed == 0 || st.allocs == 0 {
			t.Fatalf("traced=%v: %d dropped, %d duplicated, %d delayed, %d payloads made — the faults were never exercised", traced, dropped, duped, delayed, st.allocs)
		}
		if !traced && st.adds == 0 {
			t.Fatal("an untraced run counted no reference")
		}
		queued := 0
		for _, q := range set.q {
			queued += q.live
		}
		if queued == 0 {
			t.Fatalf("traced=%v: the last run left nothing queued for Release to bring back", traced)
		}
		r.Release()
		books("after Release")
	}
}
