package sim

import (
	"math"
	"strings"
	"testing"

	"repro/internal/dist"
)

func TestFaultPlanValidate(t *testing.T) {
	cases := []struct {
		name string
		fp   FaultPlan
		want string
	}{
		{"loss low", FaultPlan{Loss: -0.1}, "Loss"},
		{"loss high", FaultPlan{Loss: 1}, "Loss"},
		{"dup high", FaultPlan{Dup: 1.5}, "Dup"},
		{"loss NaN", FaultPlan{Loss: math.NaN()}, "Loss"},
		{"dup NaN", FaultPlan{Dup: math.NaN()}, "Dup"},
		{"delay negative", FaultPlan{MaxDelay: -1}, "MaxDelay"},
		{"bad partition", FaultPlan{Partitions: []dist.Partition{{A: dist.NewProcSet(1), B: dist.NewProcSet(1), From: 0, Until: 5}}}, "Partitions[0]"},
	}
	for _, tc := range cases {
		err := tc.fp.Validate(3)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want error containing %q", tc.name, err, tc.want)
		}
	}
	ok := FaultPlan{Seed: 7, Loss: 0.1, Dup: 0.1, MaxDelay: 4,
		Partitions: []dist.Partition{{A: dist.NewProcSet(1), B: dist.NewProcSet(2, 3), From: 5, Until: 50}}}
	if err := ok.Validate(3); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
}

// Same (plan seed, run seed, seq) ⇒ identical decisions — the pure-function
// contract that makes sweep aggregates worker-count-independent — and the
// decision stream actually exercises every fault kind.
func TestFaultPlanDecideDeterministic(t *testing.T) {
	fp := &FaultPlan{Seed: 42, Loss: 0.2, Dup: 0.2, MaxDelay: 8}
	var drops, dups, delays int
	for seq := int64(1); seq <= 2000; seq++ {
		d1, u1, del1, dd1 := fp.decide(17, seq)
		d2, u2, del2, dd2 := fp.decide(17, seq)
		if d1 != d2 || u1 != u2 || del1 != del2 || dd1 != dd2 {
			t.Fatalf("seq %d: decisions differ across calls", seq)
		}
		if del1 < 0 || del1 > fp.MaxDelay || dd1 < 0 || dd1 > fp.MaxDelay {
			t.Fatalf("seq %d: delay %d/%d outside [0,%d]", seq, int64(del1), int64(dd1), int64(fp.MaxDelay))
		}
		if d1 {
			drops++
		}
		if u1 {
			dups++
		}
		if del1 > 0 {
			delays++
		}
	}
	if drops == 0 || dups == 0 || delays == 0 {
		t.Fatalf("degenerate decision stream: %d drops, %d dups, %d delays in 2000", drops, dups, delays)
	}
	// Roughly calibrated probabilities (generous bounds; the stream is fixed,
	// so this cannot flake).
	if drops < 200 || drops > 600 {
		t.Fatalf("drop count %d wildly off a 0.2 rate over 2000", drops)
	}
	// A different run seed must give a different stream.
	diff := false
	for seq := int64(1); seq <= 100 && !diff; seq++ {
		d1, u1, del1, _ := fp.decide(17, seq)
		d2, u2, del2, _ := fp.decide(18, seq)
		diff = d1 != d2 || u1 != u2 || del1 != del2
	}
	if !diff {
		t.Fatal("run seeds 17 and 18 produced identical decision streams")
	}
}

// Two identical lossy runs must agree on everything, including the fault
// counters surfaced in Result.
func TestFaultyRunDeterministicCounters(t *testing.T) {
	f := dist.NewFailurePattern(3)
	fp := &FaultPlan{Seed: 5, Loss: 0.3, Dup: 0.3, MaxDelay: 3}
	run := func() *Result {
		res, err := Run(Config{
			Pattern: f, History: nilHistory(), Program: echoProgram,
			Scheduler: NewRandomScheduler(9), Faults: fp, MaxSteps: 400,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.MessagesDropped != b.MessagesDropped || a.MessagesDuplicated != b.MessagesDuplicated || a.MessagesDelayed != b.MessagesDelayed {
		t.Fatalf("fault counters differ: %d/%d dropped, %d/%d duplicated, %d/%d delayed",
			a.MessagesDropped, b.MessagesDropped, a.MessagesDuplicated, b.MessagesDuplicated, a.MessagesDelayed, b.MessagesDelayed)
	}
	if a.Steps != b.Steps || a.MessagesSent != b.MessagesSent {
		t.Fatalf("runs diverged: %d/%d steps, %d/%d msgs", a.Steps, b.Steps, a.MessagesSent, b.MessagesSent)
	}
	if a.MessagesDropped == 0 || a.MessagesDuplicated == 0 {
		t.Fatalf("fault plan injected nothing: %+v", a)
	}
}

// A partition delays, never loses: deliveries across the cut happen at or
// after the heal time, and the protocol still terminates.
func TestPartitionHealReleasesMessages(t *testing.T) {
	const heal = 50
	f := dist.NewFailurePattern(2)
	fp := &FaultPlan{Partitions: []dist.Partition{
		{A: dist.NewProcSet(1), B: dist.NewProcSet(2), From: 0, Until: heal},
	}}
	res, err := Run(Config{
		Pattern: f, History: nilHistory(), Program: echoProgram,
		Scheduler: NewRandomScheduler(3), Faults: fp,
		StopWhenDecided: true, MaxSteps: 5_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Decisions) != 2 {
		t.Fatalf("expected both processes to decide after heal, got %v (reason %s)", res.Decisions, res.Reason)
	}
	for p, dt := range res.DecideTime {
		if dt < heal {
			t.Fatalf("p%d decided at t=%d, before the heal at %d", int(p), int64(dt), heal)
		}
	}
	if res.MessagesDropped != 0 {
		t.Fatalf("partition dropped %d messages; partitions must only delay", res.MessagesDropped)
	}

	// Unhealed, the same run cannot finish: it ends at its horizon.
	res, err = Run(Config{
		Pattern: f, History: nilHistory(), Program: echoProgram,
		Scheduler: NewRandomScheduler(3), StopWhenDecided: true, MaxSteps: 3_000,
		Faults: &FaultPlan{Partitions: []dist.Partition{
			{A: dist.NewProcSet(1), B: dist.NewProcSet(2), From: 0, Until: dist.NoCrash},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != ReasonMaxSteps || res.Ticks != 3_000 {
		t.Fatalf("unhealed run ended %s after %d ticks, want %s after 3000", res.Reason, res.Ticks, ReasonMaxSteps)
	}
}
