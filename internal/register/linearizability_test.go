package register

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/dist"
	"repro/internal/sim"
	"repro/internal/trace"
)

func w(p dist.ProcID, arg Value, inv, ret dist.Time) OpRecord {
	return OpRecord{Proc: p, Kind: WriteOp, Arg: arg, Invoked: inv, Returned: ret, Complete: true}
}

func r(p dist.ProcID, res Value, inv, ret dist.Time) OpRecord {
	return OpRecord{Proc: p, Kind: ReadOp, Ret: res, Invoked: inv, Returned: ret, Complete: true}
}

func mustLin(t *testing.T, ops []OpRecord, want bool) {
	t.Helper()
	got, err := CheckLinearizable(ops, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("linearizable=%v, want %v for:\n%s", got, want, ExplainNonLinearizable(ops))
	}
}

func TestLinearizableSequential(t *testing.T) {
	mustLin(t, []OpRecord{
		w(1, 5, 0, 1),
		r(2, 5, 2, 3),
		w(1, 6, 4, 5),
		r(2, 6, 6, 7),
	}, true)
}

func TestLinearizableInitialValue(t *testing.T) {
	mustLin(t, []OpRecord{r(1, 0, 0, 1)}, true)
	mustLin(t, []OpRecord{r(1, 9, 0, 1)}, false)
}

func TestNotLinearizableStaleRead(t *testing.T) {
	// Read starts after the write completed but returns the old value.
	mustLin(t, []OpRecord{
		w(1, 5, 0, 1),
		r(2, 0, 2, 3),
	}, false)
}

func TestLinearizableConcurrentReadMaySeeEither(t *testing.T) {
	// A read overlapping a write may return old or new value.
	mustLin(t, []OpRecord{w(1, 5, 0, 10), r(2, 0, 1, 2)}, true)
	mustLin(t, []OpRecord{w(1, 5, 0, 10), r(2, 5, 1, 2)}, true)
}

func TestNotLinearizableNewOldInversion(t *testing.T) {
	// Two sequential reads overlapping a write must not observe new-then-old.
	mustLin(t, []OpRecord{
		w(1, 5, 0, 100),
		r(2, 5, 10, 20),
		r(2, 0, 30, 40),
	}, false)
	// old-then-new is fine.
	mustLin(t, []OpRecord{
		w(1, 5, 0, 100),
		r(2, 0, 10, 20),
		r(2, 5, 30, 40),
	}, true)
}

func TestLinearizableConcurrentWrites(t *testing.T) {
	// Reads overlapping two concurrent writes may observe them in some
	// order: w1 · r=1 · w2 · r=2 is a valid linearization.
	mustLin(t, []OpRecord{
		w(1, 1, 0, 10),
		w(2, 2, 0, 10),
		r(3, 1, 3, 4),
		r(3, 2, 5, 6),
	}, true)
	// But once both writes completed before the reads started, the reads
	// must agree on the final value — and can never flip back.
	mustLin(t, []OpRecord{
		w(1, 1, 0, 10),
		w(2, 2, 0, 10),
		r(3, 1, 20, 21),
		r(3, 2, 22, 23),
	}, false)
	// And within overlapping windows, observing 1 then 2 then 1 again would
	// require w1 to linearize both before and after w2.
	mustLin(t, []OpRecord{
		w(1, 1, 0, 10),
		w(2, 2, 0, 10),
		r(3, 1, 3, 4),
		r(3, 2, 5, 6),
		r(3, 1, 7, 8),
	}, false)
}

func TestLinearizablePendingWriteMayTakeEffect(t *testing.T) {
	pending := OpRecord{Proc: 1, Kind: WriteOp, Arg: 5, Invoked: 0, Complete: false}
	mustLin(t, []OpRecord{pending, r(2, 5, 10, 11)}, true)
	mustLin(t, []OpRecord{pending, r(2, 0, 10, 11)}, true)
}

func TestLinearizablePendingWriteCannotPredate(t *testing.T) {
	// A pending op invoked after a completed read cannot explain it.
	pending := OpRecord{Proc: 1, Kind: WriteOp, Arg: 5, Invoked: 50, Complete: false}
	mustLin(t, []OpRecord{pending, r(2, 5, 10, 11)}, false)
}

// storeTrace builds a trace of keyed Invoke/Return events for the extractor
// error-path tests.
func storeTrace(events ...trace.Event) *trace.Trace {
	tr := &trace.Trace{}
	for _, e := range events {
		tr.Append(e)
	}
	return tr
}

func inv(p dist.ProcID, seq int64, t dist.Time, key int, kind OpKind, arg Value) trace.Event {
	return trace.Event{Kind: trace.InvokeKind, P: p, Seq: seq, T: t,
		Payload: KeyedOpDesc{Key: key, Kind: kind, Arg: arg}}
}

func ret(p dist.ProcID, seq int64, t dist.Time, key int, kind OpKind, retV Value) trace.Event {
	return trace.Event{Kind: trace.ReturnKind, P: p, Seq: seq, T: t,
		Payload: KeyedOpDesc{Key: key, Kind: kind, Ret: retV}}
}

func TestExtractKeyedOpsMismatchedPairs(t *testing.T) {
	tr := storeTrace(
		inv(1, 1, 0, 3, WriteOp, 7),
		// Return without a matching Invoke (unknown seq): must be ignored,
		// not panic or invent a record.
		ret(2, 99, 1, 3, ReadOp, 7),
		// Invoke without a Return: an incomplete op.
		inv(2, 1, 2, 3, ReadOp, 0),
		ret(1, 1, 3, 3, WriteOp, 0),
	)
	byKey := ExtractKeyedOps(tr)
	if len(byKey) != 1 || len(byKey[3]) != 2 {
		t.Fatalf("extracted %v, want 2 ops on key 3", byKey)
	}
	var complete, pending int
	for _, o := range byKey[3] {
		if o.Complete {
			complete++
		} else {
			pending++
		}
	}
	if complete != 1 || pending != 1 {
		t.Fatalf("got %d complete / %d pending, want 1/1: %v", complete, pending, byKey[3])
	}
	// The orphaned Return must not have completed p2's read.
	if err := CheckKeyedLinearizable(byKey, 0); err != nil {
		t.Fatalf("history with a pending read must pass: %v", err)
	}
}

func TestCheckKeyedLinearizableNeverWrittenKey(t *testing.T) {
	// A read returning a value never written to its key fails that key
	// even though another key holds the value.
	tr := storeTrace(
		inv(1, 1, 0, 0, WriteOp, 42),
		ret(1, 1, 1, 0, WriteOp, 0),
		inv(2, 1, 2, 5, ReadOp, 0),
		ret(2, 1, 3, 5, ReadOp, 42),
	)
	err := CheckKeyedLinearizable(ExtractKeyedOps(tr), 0)
	if err == nil {
		t.Fatal("read of a never-written key must fail")
	}
	if !strings.Contains(err.Error(), "key 5") {
		t.Fatalf("failure must name key 5: %v", err)
	}
}

// wantErrMentions fails unless err is non-nil and mentions every substring.
func wantErrMentions(t *testing.T, err error, substrs ...string) {
	t.Helper()
	if err == nil {
		t.Fatalf("got no error, want one mentioning %q", substrs)
	}
	for _, sub := range substrs {
		if !strings.Contains(err.Error(), sub) {
			t.Fatalf("error must mention %q:\n%v", sub, err)
		}
	}
}

func TestLinearizableEqualTicksAreConcurrent(t *testing.T) {
	// Precedence is strict: an op returning at the tick another is invoked
	// overlaps it, so either may take effect first.
	mustLin(t, []OpRecord{w(1, 5, 0, 3), r(2, 0, 3, 4)}, true)
	mustLin(t, []OpRecord{w(1, 5, 0, 3), r(2, 0, 4, 5)}, false)
	mustLin(t, []OpRecord{r(2, 5, 0, 3), w(1, 5, 3, 4)}, true)
	mustLin(t, []OpRecord{r(2, 5, 0, 2), w(1, 5, 3, 4)}, false)
	mustLin(t, []OpRecord{r(2, 3, 2, 2), w(1, 3, 2, 2)}, true)
}

func TestCheckKeyedLinearizableRejectsRepeatedWriteValue(t *testing.T) {
	// Two writes of one value make a history the zone test cannot decide:
	// an error, not a verdict, naming the key, the value and both writes.
	first, second := w(1, 5, 0, 1), w(2, 5, 4, 5)
	ops := []OpRecord{first, r(3, 5, 2, 3), second}
	wantErrMentions(t, CheckKeyedLinearizable(map[int][]OpRecord{4: ops}, 0),
		"key 4", "value 5 is written twice", first.String(), second.String())
	if _, err := CheckLinearizable(ops, 0); err == nil {
		t.Fatal("CheckLinearizable must reject a repeated write value")
	}
}

func TestCheckKeyedLinearizableRejectsWriteOfInitialValue(t *testing.T) {
	wr := w(1, 7, 2, 3)
	ops := []OpRecord{r(2, 7, 0, 1), wr}
	wantErrMentions(t, CheckKeyedLinearizable(map[int][]OpRecord{2: ops}, 7),
		"key 2", wr.String(), "writes the initial value 7")
	if _, err := CheckLinearizable(ops, 7); err == nil {
		t.Fatal("CheckLinearizable must reject a write of the initial value")
	}
}

func TestCheckKeyedLinearizableNamesWitness(t *testing.T) {
	// Every kind of rejection names what broke and the ops that show it,
	// then lists the history.
	w1, w2 := w(1, 1, 0, 10), w(2, 2, 0, 10)
	r1, r2 := r(3, 1, 20, 21), r(3, 2, 22, 23)
	wNew, rNew, rOld := w(1, 5, 0, 100), r(2, 5, 10, 20), r(2, 0, 30, 40)
	cases := []struct {
		name    string
		ops     []OpRecord
		substrs []string
	}{
		{"unwritten value", []OpRecord{w(1, 5, 0, 1), r(2, 9, 2, 3)},
			[]string{r(2, 9, 2, 3).String() + " returns 9, a value no write on this key produced"}},
		{"read before its write", []OpRecord{r(2, 5, 0, 1), w(1, 5, 2, 3)},
			[]string{r(2, 5, 0, 1).String() + " returns before " + w(1, 5, 2, 3).String()}},
		{"overlapping forward zones", []OpRecord{w1, w2, r1, r2},
			[]string{"overlaps",
				"the forward zone of value 1 (" + w1.String() + " returns at 10, before " + r1.String() + " is invoked at 20)",
				"the forward zone of value 2 (" + w2.String() + " returns at 10, before " + r2.String() + " is invoked at 22)"}},
		{"backward zone inside a forward zone", []OpRecord{wNew, rNew, rOld},
			[]string{"the backward zone of value 5 (" + rNew.String() + " is invoked at 10, no later than " + rNew.String() + " returns at 20) lies inside",
				"the forward zone of initial value 0 (the initial value returns at -∞, before " + rOld.String() + " is invoked at 30)"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mustLin(t, tc.ops, false)
			want := append([]string{"key 3: ", "history not linearizable:\n  " + tc.ops[0].String()}, tc.substrs...)
			wantErrMentions(t, CheckKeyedLinearizable(map[int][]OpRecord{3: tc.ops}, 0), want...)
		})
	}
}

// hotKeyHistory is one key's linearizable history of 10,000 complete ops
// from 8 processes whose windows overlap.
func hotKeyHistory() []OpRecord {
	return linearizableHistory(rand.New(rand.NewSource(18)), 8, 10_000, 0)
}

// TestCheckKeyedLinearizableHotKey checks one key far beyond the 64 ops the
// Wing-Gong search could track: the linearizable 10,000-op history is
// accepted in well under a second, and the same history with its last read
// pointed at the first write's long-overwritten value is rejected with that
// read named as the witness.
func TestCheckKeyedLinearizableHotKey(t *testing.T) {
	ops := hotKeyHistory()
	start := time.Now()
	if err := CheckKeyedLinearizable(map[int][]OpRecord{7: ops}, 0); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 250*time.Millisecond {
		t.Fatalf("checking %d ops took %v, want well under a second", len(ops), d)
	}
	last := -1
	for i, o := range ops {
		if o.Kind == ReadOp && (last < 0 || o.Invoked > ops[last].Invoked) {
			last = i
		}
	}
	ops[last].Ret = 1
	wantErrMentions(t, CheckKeyedLinearizable(map[int][]OpRecord{7: ops}, 0),
		"key 7: ", "zone of value 1 (", ops[last].String()+" is invoked at",
		fmt.Sprintf("\n  … and %d more ops", len(ops)-64))
}

// TestLinearizableSequentialAlwaysAccepted is a property test: any history
// generated by a sequential single-register interpreter is linearizable. Its
// write values repeat (and include the initial value), outside the zone
// checker's unique-write precondition, so it checks the Wing-Gong oracle.
func TestLinearizableSequentialAlwaysAccepted(t *testing.T) {
	prop := func(kinds []bool, args []int8) bool {
		cur := Value(0)
		var ops []OpRecord
		now := dist.Time(0)
		for i, isWrite := range kinds {
			if len(ops) >= 30 {
				break
			}
			var o OpRecord
			if isWrite {
				a := Value(1)
				if i < len(args) {
					a = Value(args[i])
				}
				o = w(dist.ProcID(1+i%3), a, now, now+1)
				cur = a
			} else {
				o = r(dist.ProcID(1+i%3), cur, now, now+1)
			}
			now += 2
			ops = append(ops, o)
		}
		ok, err := linearizableWingGong(ops, 0)
		return err == nil && ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestLinearizableCorruptedReadRejected is a property test: corrupting one
// read of a sequential history to a value never written is rejected.
func TestLinearizableCorruptedReadRejected(t *testing.T) {
	prop := func(kinds []bool) bool {
		cur := Value(0)
		var ops []OpRecord
		now := dist.Time(0)
		readIdx := -1
		for i, isWrite := range kinds {
			if len(ops) >= 20 {
				break
			}
			if isWrite {
				a := Value(i + 1)
				ops = append(ops, w(1, a, now, now+1))
				cur = a
			} else {
				ops = append(ops, r(2, cur, now, now+1))
				readIdx = len(ops) - 1
			}
			now += 2
		}
		if readIdx < 0 {
			return true // no read to corrupt
		}
		ops[readIdx].Ret = -777 // never written
		ok, err := CheckLinearizable(ops, 0)
		return err == nil && !ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// contendedKeyHistory records key 0 of one run of the benchmark's
// store-contended workload: 8 closed-loop clients at window 4 with
// piggybacking and fast reads, 30 ops each at write ratio 0.3 over 4 keys,
// so every key carries MaxOpsPerKey = 60 ops.
func contendedKeyHistory(b *testing.B) []OpRecord {
	b.Helper()
	const n = 8
	s := dist.RangeSet(1, n)
	scripts, err := GenerateStoreWorkload(StoreWorkloadConfig{
		N: n, S: s, Keys: 4, OpsPerClient: 30, WriteRatio: 0.3,
	})
	if err != nil {
		b.Fatal(err)
	}
	cfg, err := StoreSweepConfig{
		Pattern: dist.NewFailurePattern(n), S: s, Scripts: scripts,
		Store: StoreConfig{Keys: 4, Window: 4, Piggyback: true, FastReads: true},
	}.SimConfig()
	if err != nil {
		b.Fatal(err)
	}
	cfg.Scheduler = sim.NewRandomScheduler(0)
	res, err := sim.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ops := ExtractKeyedOps(res.Trace)[0]
	if len(ops) != MaxOpsPerKey {
		b.Fatalf("recorded %d ops on key 0, want %d", len(ops), MaxOpsPerKey)
	}
	return ops
}

// BenchmarkCheckKeyed checks one key per iteration: a recorded 60-op
// store-contended key with the zone checker and with the Wing-Gong oracle
// it replaced, and the 10,000-op hot key with the zone checker alone.
func BenchmarkCheckKeyed(b *testing.B) {
	zone := func(ops []OpRecord) func(*testing.B) {
		return func(b *testing.B) {
			byKey := map[int][]OpRecord{0: ops}
			b.ReportAllocs()
			for range b.N {
				if err := CheckKeyedLinearizable(byKey, 0); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	contended := contendedKeyHistory(b)
	b.Run("contended-60/zone", zone(contended))
	b.Run("contended-60/wing-gong", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			if ok, err := linearizableWingGong(contended, 0); err != nil || !ok {
				b.Fatalf("linearizable=%v, err=%v", ok, err)
			}
		}
	})
	b.Run("hotkey-10k/zone", zone(hotKeyHistory()))
}
