package dist

import (
	"slices"
	"strings"
	"testing"
)

// TestRecoverAtValidation pins the construction-time guards: recovery needs a
// prior crash, must be strictly after it, and un-crashing a process discards
// its scheduled recovery.
func TestRecoverAtValidation(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	f := NewFailurePattern(4)
	mustPanic("never crashed", func() { f.RecoverAt(2, 50) })
	mustPanic("out of range", func() { f.RecoverAt(9, 50) })
	f.CrashAt(2, 40)
	mustPanic("before crash", func() { f.RecoverAt(2, 30) })
	mustPanic("at crash", func() { f.RecoverAt(2, 40) })
	f.RecoverAt(2, 120)
	mustPanic("crash moved past recovery", func() { f.CrashAt(2, 120) })

	if !f.HasRecoveries() || !f.Recovering().Contains(2) {
		t.Fatalf("recovery not registered: %v", f.Recovering())
	}
	if got := f.RecoverTime(2); got != 120 {
		t.Fatalf("RecoverTime(2) = %d, want 120", int64(got))
	}
	if f.RecoverTime(9) != NoCrash {
		t.Fatal("RecoverTime outside 1..n must be NoCrash")
	}

	// Cancelling the recovery keeps the crash.
	f.RecoverAt(2, NoCrash)
	if f.HasRecoveries() || f.RecoverTime(2) != NoCrash {
		t.Fatal("RecoverAt(p, NoCrash) must cancel the recovery")
	}
	if f.CrashTime(2) != 40 {
		t.Fatal("cancelling a recovery must not touch the crash time")
	}

	// Un-crashing discards the recovery entirely.
	f.RecoverAt(2, 120)
	f.CrashAt(2, NoCrash)
	if f.HasRecoveries() || f.RecoverTime(2) != NoCrash {
		t.Fatal("CrashAt(p, NoCrash) must discard the scheduled recovery")
	}
}

// TestRecoveryAliveIntervals checks the down interval [crash, recover) on
// both the per-process and the per-time query, and that recovery restores
// liveness but never correctness.
func TestRecoveryAliveIntervals(t *testing.T) {
	f := NewFailurePattern(5)
	f.CrashAt(2, 40)
	f.RecoverAt(2, 120)
	f.CrashAt(4, 60) // crash-stop, never recovers

	for _, tc := range []struct {
		p    ProcID
		t    Time
		want bool
	}{
		{2, 0, true}, {2, 39, true}, {2, 40, false}, {2, 119, false},
		{2, 120, true}, {2, 10_000, true},
		{4, 59, true}, {4, 60, false}, {4, 10_000, false},
		{1, 10_000, true},
	} {
		if got := f.Alive(tc.p, tc.t); got != tc.want {
			t.Errorf("Alive(p%d, %d) = %v, want %v", int(tc.p), int64(tc.t), got, tc.want)
		}
	}

	for _, tc := range []struct {
		t    Time
		want ProcSet
	}{
		{0, NewProcSet(1, 2, 3, 4, 5)},
		{40, NewProcSet(1, 3, 4, 5)},
		{60, NewProcSet(1, 3, 5)},
		{119, NewProcSet(1, 3, 5)},
		{120, NewProcSet(1, 2, 3, 5)},
		{10_000, NewProcSet(1, 2, 3, 5)},
	} {
		if got := f.AliveAt(tc.t); got != tc.want {
			t.Errorf("AliveAt(%d) = %v, want %v", int64(tc.t), got, tc.want)
		}
	}

	// Ever-crashed stays faulty: recovery restores liveness, not correctness.
	if f.IsCorrect(2) || f.Correct().Contains(2) {
		t.Fatal("a recovered process must stay outside Correct()")
	}
	if got, want := f.Correct(), NewProcSet(1, 3, 5); got != want {
		t.Fatalf("Correct() = %v, want %v", got, want)
	}
	if got := f.String(); !strings.Contains(got, "p2@40r120") || !strings.Contains(got, "p4@60") {
		t.Fatalf("String() = %q, want crash and recovery rendered", got)
	}

	// Mutating after an AliveAt read must rebuild the schedule.
	f.RecoverAt(4, 200)
	if got, want := f.AliveAt(150), NewProcSet(1, 2, 3, 5); got != want {
		t.Fatalf("AliveAt(150) after late RecoverAt = %v, want %v", got, want)
	}
	if got, want := f.AliveAt(200), NewProcSet(1, 2, 3, 4, 5); got != want {
		t.Fatalf("AliveAt(200) after late RecoverAt = %v, want %v", got, want)
	}
}

// TestTransitionsOrder pins the order a run applies F's transitions in: by
// time, crashes before recoveries at one time, then by process, with
// eighteen processes crashing at one time.
func TestTransitionsOrder(t *testing.T) {
	f := NewFailurePattern(20)
	for p := ProcID(20); p >= 3; p-- {
		f.CrashAt(p, 5)
	}
	f.CrashAt(1, 0)
	f.RecoverAt(1, 5)
	f.RecoverAt(7, 9)
	f.RecoverAt(4, 9)
	f.CrashAt(2, 9)

	want := []Transition{{T: 0, P: 1}}
	for p := ProcID(3); p <= 20; p++ {
		want = append(want, Transition{T: 5, P: p})
	}
	want = append(want, Transition{T: 5, P: 1, Recover: true},
		Transition{T: 9, P: 2},
		Transition{T: 9, P: 4, Recover: true}, Transition{T: 9, P: 7, Recover: true})
	if got := f.Transitions(); !slices.Equal(got, want) {
		t.Fatalf("Transitions() = %v,\nwant %v", got, want)
	}

	// A slice handed out earlier keeps its contents across later setup.
	before := f.Transitions()
	f.CrashAt(2, NoCrash)
	if len(before) != len(want) || before[len(want)-3] != (Transition{T: 9, P: 2}) {
		t.Fatalf("CrashAt rewrote a slice Transitions handed out: %v", before)
	}
	if got := f.Transitions(); len(got) != len(want)-1 {
		t.Fatalf("Transitions() after un-crashing p2 = %v", got)
	}
}

// TestPartitionOneWayBlocks pins the asymmetric cut: A→B blocked during the
// window, B→A and unrelated pairs always flow, and Separates stays
// direction-agnostic (reachability analysis treats a one-way cut as cutting
// the request/reply exchange either way).
func TestPartitionOneWayBlocks(t *testing.T) {
	pt := Partition{A: NewProcSet(1), B: NewProcSet(2, 3), From: 10, Until: 50, OneWay: true}
	if err := pt.Validate(4); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		from, to ProcID
		t        Time
		want     bool
	}{
		{1, 2, 10, true}, {1, 3, 49, true}, // A→B inside the window
		{2, 1, 10, false}, {3, 1, 49, false}, // B→A flows
		{1, 2, 9, false}, {1, 2, 50, false}, // outside the window
		{2, 3, 20, false}, {1, 4, 20, false}, {4, 2, 20, false}, // same side / neither side
	} {
		if got := pt.Blocks(tc.from, tc.to, tc.t); got != tc.want {
			t.Errorf("Blocks(p%d→p%d, %d) = %v, want %v", int(tc.from), int(tc.to), int64(tc.t), got, tc.want)
		}
	}
	if !pt.Separates(1, 2) || !pt.Separates(2, 1) {
		t.Fatal("Separates must stay direction-agnostic for one-way partitions")
	}
	if s := pt.String(); !strings.Contains(s, "↛") {
		t.Fatalf("one-way String() = %q, want the one-way arrow", s)
	}
	sym := pt
	sym.OneWay = false
	if !sym.Blocks(2, 1, 10) {
		t.Fatal("symmetric partition must block B→A")
	}
	if s := sym.String(); !strings.Contains(s, "↮") {
		t.Fatalf("symmetric String() = %q, want the symmetric arrow", s)
	}
}
