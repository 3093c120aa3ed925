package register

import (
	"testing"

	"repro/internal/dist"
	"repro/internal/fd"
	"repro/internal/sim"
)

// The E12b ablation: ABD without the read write-back phase is NOT atomic.
// StoreNode.noWriteBack skips every read's write-back, and the one-key store
// runs a hand-built schedule. The construction stages a new/old inversion deterministically:
//
//   - p1 writes; its store messages reach only replica p2 (the rest are
//     delayed), so the write stays pending with the new value visible at a
//     single replica.
//   - p2 reads with quorum {1,2,5}: its own replica already holds the new
//     value, so the read returns it ... and without write-back nothing is
//     propagated.
//   - p3 then reads with quorum {3,4,5} — valid for Σ_S, it intersects the
//     others at p5 — which holds only the old value: the read returns 0.
//
// p2's read precedes p3's read in real time but observes the newer value:
// a new/old inversion. With the write-back enabled, the same schedule is
// linearizable because p2's read pushes the new value to a full quorum
// before returning — also with fast reads on, whose rule must refuse to
// elide p2's write-back because its phase-1 replies disagree.
func runInversionScenario(t *testing.T, writeBack, fastReads bool) (res *sim.Result, ops []OpRecord, linearizable bool, fallbacks int64) {
	t.Helper()
	const n = 5
	f := dist.NewFailurePattern(n)
	s := dist.NewProcSet(1, 2, 3)

	scripts := make([][]KeyedOp, n)
	scripts[0] = []KeyedOp{{Kind: WriteOp, Arg: 42}}
	scripts[1] = []KeyedOp{{Kind: ReadOp}}
	scripts[2] = []KeyedOp{{Kind: ReadOp}}

	// A valid Σ_S history with hand-picked, pairwise-intersecting quorums:
	// the writer works against {1,4,5}, reader p2 against {1,2,5}, reader p3
	// against {3,4,5} — every pair intersects.
	trusted := map[dist.ProcID]dist.ProcSet{
		1: dist.NewProcSet(1, 4, 5),
		2: dist.NewProcSet(1, 2, 5),
		3: dist.NewProcSet(3, 4, 5),
	}
	hist := sim.HistoryFunc(func(p dist.ProcID, tm dist.Time) any {
		q, ok := trusted[p]
		if !ok {
			return fd.TrustList{Bottom: true}
		}
		return fd.TrustList{Trusted: q}
	})

	store, err := StoreProgram(n, s, StoreConfig{Keys: 1, Window: 1, FastReads: fastReads}, scripts)
	if err != nil {
		t.Fatal(err)
	}
	prog := func(p dist.ProcID, nn int) sim.Automaton {
		node := store(p, nn).(*StoreNode)
		node.noWriteBack = !writeBack
		return node
	}

	// Phase A0: the writer completes its query phase against {1,4,5} and
	// broadcasts the store; only the store to p2 is deliverable. Phase A1:
	// p2 joins — its first step delivers the store (its only pending
	// message), so its read starts on a replica already holding the new
	// value. Phase B: p3 reads against {3,4,5}, which still hold the old
	// value.
	var script []sim.Choice
	for i := 0; i < 40; i++ {
		script = append(script, sim.Steps(sim.DeliverAuto, 1, 1, 4, 5)...)
	}
	for i := 0; i < 120; i++ {
		script = append(script, sim.Steps(sim.DeliverAuto, 1, 2, 1, 5)...)
	}
	for i := 0; i < 120; i++ {
		script = append(script, sim.Steps(sim.DeliverAuto, 1, 3, 4, 5)...)
	}

	// Through t = 900 every step passes over two kinds of message from p1:
	// its store to anyone but p2 (the write stays pending at {1,2} only) and
	// its query to p2 (p2's inbox stays clean for the store).
	unheld := func(m *sim.Message) bool {
		fr := m.Payload.(*storeFrame)
		return m.From != 1 || (len(fr.S) == 0 || m.To == 2) && (len(fr.Q) == 0 || m.To != 2)
	}
	res, err = sim.Run(sim.Config{
		Pattern: f,
		History: hist,
		Program: prog,
		Scheduler: &holdingScheduler{
			Scheduler: &sim.ScriptedScheduler{Script: script, Then: sim.NewRandomScheduler(1)},
			until:     900, match: unheld,
		},
		MaxSteps: 5000,
		StopWhen: func(sn *sim.Snapshot) bool {
			return sn.Automaton(2).(*StoreNode).Done() && sn.Automaton(3).(*StoreNode).Done() && sn.Now() > 950
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ops = KeyedOps(res.Ops)[0]
	linearizable, err = CheckLinearizable(ops, 0)
	if err != nil {
		t.Fatal(err)
	}
	return res, ops, linearizable, res.Automata[1].(*StoreNode).ReadFallbacks()
}

// holdingScheduler turns every DeliverAuto step its inner scheduler picks
// through tick until into a DeliverMatch on match: the step receives the
// oldest deliverable message that match accepts, or none.
type holdingScheduler struct {
	sim.Scheduler
	until dist.Time
	match func(m *sim.Message) bool
}

func (h *holdingScheduler) Next(v *sim.View) (sim.Choice, bool) {
	c, ok := h.Scheduler.Next(v)
	if ok && c.Mode == sim.DeliverAuto && v.Now <= h.until {
		c.Mode, c.Match = sim.DeliverMatch, h.match
	}
	return c, ok
}

func TestNoWriteBackBreaksAtomicity(t *testing.T) {
	res, ops, linearizable, _ := runInversionScenario(t, false, false)
	if linearizable {
		t.Fatalf("expected a new/old inversion without write-back, but the history linearizes:\n%s",
			ExplainNonLinearizable(ops))
	}
	// Confirm the specific inversion shape: p2 read new, p3 read old, in
	// real-time order.
	var r2, r3 *OpRecord
	for i := range ops {
		o := &ops[i]
		if o.Kind == ReadOp && o.Proc == 2 {
			r2 = o
		}
		if o.Kind == ReadOp && o.Proc == 3 {
			r3 = o
		}
	}
	if r2 == nil || r3 == nil || !r2.Complete || !r3.Complete {
		t.Fatalf("missing reads: %v", ops)
	}
	if !(r2.Ret == 42 && r3.Ret == 0 && r2.Returned < r3.Invoked) {
		t.Fatalf("expected new-then-old inversion, got p2=%v p3=%v", r2, r3)
	}
	// The rejection names the inversion: p2's read of 42 must take effect
	// before p3's read of the initial value, yet 42's write came first.
	wantErrMentions(t, CheckKeyedLinearizable(map[int][]OpRecord{0: ops}, 0),
		"the backward zone of value 42 ("+r2.String(),
		"lies inside the forward zone of initial value 0", "before "+r3.String()+" is invoked")
	// The sweep's check pairs the op log in its own scratch, and must
	// reject the run with exactly the text of the map-based wrappers.
	want := CheckKeyedLinearizable(KeyedOps(res.Ops), 0)
	if got := VerifyStoreRunReach(res, dist.FullSet(5), nil); got == nil || want == nil || got.Error() != want.Error() {
		t.Fatalf("VerifyStoreRunReach says\n%v\nCheckKeyedLinearizable says\n%v", got, want)
	}
}

func TestWriteBackRestoresAtomicity(t *testing.T) {
	for _, fastReads := range []bool{false, true} {
		_, ops, linearizable, fallbacks := runInversionScenario(t, true, fastReads)
		if !linearizable {
			t.Fatalf("fastReads=%v: with write-back the same schedule must linearize:\n%s", fastReads, ExplainNonLinearizable(ops))
		}
		// With fast reads on, p2's phase-1 replies disagree (p2 holds 42,
		// p1 and p5 hold 0), so the fast-read rule must send it to write-back.
		if fastReads && fallbacks != 1 {
			t.Fatalf("fastReads: p2 fell back %d times, want 1", fallbacks)
		}
	}
}

func TestRandomWorkloadsLinearizable(t *testing.T) {
	// Integration sweep: random mixed workloads on the one register with
	// mid-run replica crashes stay linearizable.
	const n = 5
	s := dist.NewProcSet(1, 2, 3)
	for seed := int64(0); seed < 12; seed++ {
		scripts, err := GenerateStoreWorkload(StoreWorkloadConfig{
			N: n, S: s, Keys: 1, OpsPerClient: 4, WriteRatio: 0.5, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		f := dist.NewFailurePattern(n)
		if seed%3 == 0 {
			f.CrashAt(5, dist.Time(40+seed))
		}
		if ops := runRegister(t, f, s, scripts, 120, seed); len(ops) != TotalKeyedOps(scripts) {
			t.Fatalf("seed=%d: %d ops recorded, want %d", seed, len(ops), TotalKeyedOps(scripts))
		}
	}
}
