package separation

import (
	"fmt"
	"hash/fnv"
	"slices"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/sim"
	"repro/internal/trace"
)

// runPin is the schedule-determined outcome of one run: its step, tick and
// send counts, why it stopped, when each process decided and an FNV-64a hash
// of its full trace.
type runPin struct {
	Steps, Ticks, Sent int64
	Reason             sim.StopReason
	DecideAt           string
	Trace              uint64
}

func pinOf(res *sim.Result) runPin {
	var at []string
	for p, t := range res.DecideTime {
		at = append(at, fmt.Sprintf("p%d@%d", int(p), int64(t)))
	}
	slices.Sort(at)
	return runPin{
		Steps: res.Steps, Ticks: res.Ticks, Sent: res.MessagesSent, Reason: res.Reason,
		DecideAt: strings.Join(at, " "), Trace: traceHash(res.Trace),
	}
}

// traceHash is the FNV-64a hash of a trace's events, one canonical line
// each.
func traceHash(tr *trace.Trace) uint64 {
	h := fnv.New64a()
	for _, e := range tr.Events() {
		fmt.Fprintf(h, "%d %d %d %t %d %d %d %d %v %v\n",
			int64(e.T), int(e.P), e.Kind, e.Delivered, int(e.From), int(e.To), e.Layer, e.Seq, e.Payload, e.FD)
	}
	return h.Sum64()
}

// TestAdversaryRunsPinned holds the two runs whose adversary delays
// messages — Lemma 15's final run and the Theorem 13 tightness run — to
// their recorded schedules, so that a change in how the delay is expressed
// cannot move a step, a send or a decision. Certificate text alone barely
// depends on the schedule.
func TestAdversaryRunsPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		cand AlgorithmProgram
		n    int
		want runPin
	}{
		{"eager n=2", EagerMinCandidate(5), 2, runPin{10, 10, 2, sim.ReasonMaxSteps, "p1@4 p2@9", 0x4345eeac2d55846}},
		{"eager n=3", EagerMinCandidate(5), 3, runPin{15, 15, 6, sim.ReasonMaxSteps, "p1@4 p2@9 p3@14", 0x3681f2ce91c6ed1b}},
		{"eager n=5", EagerMinCandidate(5), 5, runPin{25, 25, 20, sim.ReasonMaxSteps, "p1@4 p2@9 p3@14 p4@19 p5@24", 0x347839da45d4bbca}},
		{"eager n=8", EagerMinCandidate(5), 8, runPin{40, 40, 56, sim.ReasonMaxSteps, "p1@4 p2@9 p3@14 p4@19 p5@24 p6@29 p7@34 p8@39", 0x3500439829faad7a}},
		{"deferring n=2", DeferringCandidate(5), 2, runPin{22, 22, 2, sim.ReasonMaxSteps, "p1@10 p2@21", 0xa17700646ffe100c}},
		{"deferring n=3", DeferringCandidate(5), 3, runPin{48, 48, 6, sim.ReasonMaxSteps, "p1@15 p2@31 p3@47", 0xb627c4e24cbf90e3}},
		{"deferring n=5", DeferringCandidate(5), 5, runPin{130, 130, 20, sim.ReasonMaxSteps, "p1@25 p2@51 p3@77 p4@103 p5@129", 0x7e7ba22f1c97d761}},
		{"deferring n=8", DeferringCandidate(5), 8, runPin{328, 328, 56, sim.ReasonMaxSteps, "p1@40 p2@81 p3@122 p4@163 p5@204 p6@245 p7@286 p8@327", 0xe7439076ea9d1fdb}},
	} {
		final, _, cert, err := lemma15Runs(Lemma15Config{N: tc.n, Candidate: tc.cand})
		if err != nil || cert != nil {
			t.Fatalf("lemma 15 %s: a solo run ended the construction: %v %v", tc.name, cert, err)
		}
		// Through the last decision every message between two processes is
		// held, and a message to oneself is not.
		last := dist.Time(final.MaxSteps - 1)
		for p := dist.ProcID(1); int(p) <= tc.n; p++ {
			for q := dist.ProcID(1); int(q) <= tc.n; q++ {
				if got := final.Faults.Blocked(p, q, last); got != (p != q) {
					t.Errorf("lemma 15 %s: p%d→p%d blocked = %v at t=%d", tc.name, int(p), int(q), got, int64(last))
				}
			}
		}
		res, err := sim.Run(final)
		if err != nil {
			t.Fatalf("lemma 15 %s: %v", tc.name, err)
		}
		if got := pinOf(res); got != tc.want {
			t.Errorf("lemma 15 %s: got %#v\nwant %#v", tc.name, got, tc.want)
		}
	}
	for _, tc := range []struct {
		n, k int
		want runPin
	}{
		{4, 1, runPin{17, 17, 12, sim.ReasonAllDecided, "p1@16 p3@0 p4@1", 0xfa50f11488a85906}},
		{5, 2, runPin{18, 18, 20, sim.ReasonAllDecided, "p1@17 p2@4 p5@1", 0xb7780d9c5ef34e97}},
		{6, 3, runPin{21, 21, 30, sim.ReasonAllDecided, "p1@20 p2@4 p3@5", 0xce98dcb4c06c5bd8}},
		{8, 3, runPin{25, 25, 56, sim.ReasonAllDecided, "p1@17 p2@24 p3@5 p7@1 p8@2", 0xf25b58f55a506f81}},
		{10, 5, runPin{33, 33, 90, sim.ReasonAllDecided, "p1@21 p2@32 p3@4 p4@9 p5@17", 0x281bf40a378c5ee3}},
	} {
		run, _, err := tightnessRun(TightnessConfig{N: tc.n, K: tc.k, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		run.DisableTrace = false
		res, err := sim.Run(run)
		if err != nil {
			t.Fatalf("tightness n=%d k=%d: %v", tc.n, tc.k, err)
		}
		if got := pinOf(res); got != tc.want {
			t.Errorf("tightness n=%d k=%d: got %#v\nwant %#v", tc.n, tc.k, got, tc.want)
		}
	}
}
