package consensus

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/agreement"
	"repro/internal/dist"
	"repro/internal/sim"
	"repro/internal/trace"
)

// consensusFaultsConfig is the consensus-faults benchmark row: n = 6, p5
// crashes at 40 and recovers at 200, under the shared adversary (5% loss,
// 5% duplication, up to 2 ticks of delay, {p1,p3} cut off from p2 one way
// during [30, 150)).
func consensusFaultsConfig() SweepConfig {
	f := dist.NewFailurePattern(6)
	f.CrashAt(5, 40)
	f.RecoverAt(5, 200)
	return SweepConfig{
		Pattern:   f,
		Proposals: agreement.DistinctProposals(6),
		Faults: &sim.FaultPlan{
			Seed: 7, Loss: 0.05, Dup: 0.05, MaxDelay: 2,
			Partitions: []dist.Partition{{
				A: dist.NewProcSet(1, 3), B: dist.NewProcSet(2), From: 30, Until: 150, OneWay: true,
			}},
		},
	}
}

// decisionsOf renders res's decisions in identity order as "pP=V@T".
func decisionsOf(res *sim.Result) string {
	var b strings.Builder
	for p := dist.ProcID(1); p <= dist.MaxProcs; p++ {
		if v, ok := res.Decisions[p]; ok {
			if b.Len() > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "p%d=%v@%d", int(p), v, int64(res.DecideTime[p]))
		}
	}
	return b.String()
}

// TestConsensusRunsPinned pins seeds 0–3 of the consensus-faults row on one
// reused runner: every count the schedule determines, the stop reason, and
// each decision with its tick. A change to the consensus wire, the runner's
// result handling or the agreement check must leave all of them as they
// are.
func TestConsensusRunsPinned(t *testing.T) {
	want := []struct {
		steps, ticks, sent, dropped, duplicated, delayed int64
		reason                                           sim.StopReason
		decisions                                        string
	}{
		{380, 380, 90, 5, 4, 60, sim.ReasonStopCond, "p1=101@369 p2=101@378 p3=101@373 p4=101@379 p5=101@371 p6=101@372"},
		{216, 216, 107, 0, 6, 77, sim.ReasonStopCond, "p1=101@209 p2=101@211 p3=101@210 p4=101@215 p5=101@214 p6=101@212"},
		{299, 299, 88, 1, 5, 62, sim.ReasonStopCond, "p1=101@274 p2=101@282 p3=101@275 p4=101@278 p5=101@281 p6=101@298"},
		{276, 276, 95, 5, 3, 55, sim.ReasonStopCond, "p1=101@239 p2=101@275 p3=101@247 p4=101@243 p5=101@245 p6=101@260"},
	}
	cfg, err := consensusFaultsConfig().SimConfig()
	if err != nil {
		t.Fatal(err)
	}
	r, err := sim.NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for seed, w := range want {
		res, err := r.Reset(int64(seed)).Run()
		if err != nil {
			t.Fatal(err)
		}
		got := w
		got.steps, got.ticks, got.reason = res.Steps, res.Ticks, res.Reason
		got.sent, got.dropped, got.duplicated, got.delayed = res.MessagesSent, res.MessagesDropped, res.MessagesDuplicated, res.MessagesDelayed
		got.decisions = decisionsOf(res)
		if got != w {
			t.Errorf("seed %d:\n got %+v\nwant %+v", seed, got, w)
		}
	}
}

// TestConsensusRunIsAllocationFree pins the agreeing half's steady state: a
// runner warmed on the consensus-faults row then runs, resets and checks
// agreement on the same seeds with no allocation at all — no boxed message,
// no fresh Result or map, no map in the agreement check.
func TestConsensusRunIsAllocationFree(t *testing.T) {
	sc := consensusFaultsConfig()
	cfg, err := sc.SimConfig()
	if err != nil {
		t.Fatal(err)
	}
	r, err := sim.NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const seeds = 16
	seed := int64(0)
	run := func() {
		res, err := r.Reset(seed % seeds).Run()
		if err != nil {
			t.Fatal(err)
		}
		if rep := agreement.Check(sc.Pattern, 1, sc.Proposals, res); !rep.OK() {
			t.Fatalf("seed %d: %s", seed%seeds, rep)
		}
		seed++
	}
	for range seeds { // warm the inboxes, the frame pool and the result maps
		run()
	}
	if allocs := testing.AllocsPerRun(2*seeds, run); allocs != 0 {
		t.Fatalf("a warm consensus run allocates %v times, want 0", allocs)
	}
}

// TestTracedConsensusRendersFrames: a frame renders its kind and fields and
// nothing of its pool, so two runners render the same traced seed to the
// same text.
func TestTracedConsensusRendersFrames(t *testing.T) {
	for _, tc := range []struct {
		f    *frame
		want string
	}{
		{&frame{Kind: prepare, B: 7}, "prepare(b=7)"},
		{&frame{Kind: promise, B: 7, Accepted: 1, Val: 101}, "promise(b=7 acc=1 v=101)"},
		{&frame{Kind: accept, B: 13, Val: 202}, "accept(b=13 v=202)"},
		{&frame{Kind: accepted, B: 13}, "accepted(b=13)"},
		{&frame{Kind: decide, Val: 101}, "decide(v=101)"},
	} {
		if got := tc.f.String(); got != tc.want {
			t.Errorf("got %q, want %q", got, tc.want)
		}
	}
	sc := consensusFaultsConfig()
	render := func() string {
		cfg, err := sc.SimConfig()
		if err != nil {
			t.Fatal(err)
		}
		cfg.DisableTrace = false
		r, err := sim.NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Reset(2).Run()
		if err != nil {
			t.Fatal(err)
		}
		return trace.Render(res.Trace, trace.RenderOptions{N: 6, MaxRows: 1 << 20})
	}
	a, b := render(), render()
	if a != b {
		t.Fatal("two runners render the same traced seed differently")
	}
	for _, k := range []string{"prepare(", "promise(", "accept(", "accepted(", "decide("} {
		if !strings.Contains(a, "send  "+k) {
			t.Fatalf("the traced run sends no %s frame:\n%s", k, a)
		}
	}
}
