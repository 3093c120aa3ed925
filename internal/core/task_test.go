package core

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/agreement"
	"repro/internal/dist"
	"repro/internal/fd"
	"repro/internal/sim"
)

// TestTaskConfigValidation pins the range rules of a σ-task run: the active
// set {p1..p2k} must fit in Π, Figure 2 is the k = 1 task, and a config
// names its task and pattern.
func TestTaskConfigValidation(t *testing.T) {
	f6 := dist.NewFailurePattern(6)
	for _, tc := range []struct {
		name string
		cfg  TaskConfig
		want string // "" = valid
	}{
		{"fig2 k=0", TaskConfig{Task: TaskFig2, Pattern: f6}, ""},
		{"fig2 k=1", TaskConfig{Task: TaskFig2, Pattern: f6, K: 1}, ""},
		{"fig2 k=2", TaskConfig{Task: TaskFig2, Pattern: f6, K: 2}, "k = 1 task"},
		{"fig2 k=-1", TaskConfig{Task: TaskFig2, Pattern: f6, K: -1}, "k = 1 task"},
		{"fig2 n=1", TaskConfig{Task: TaskFig2, Pattern: dist.NewFailurePattern(1)}, "needs 2k ≤ n"},
		{"fig4 k=2", TaskConfig{Task: TaskFig4, Pattern: f6, K: 2}, ""},
		{"fig4 k=3 n=6", TaskConfig{Task: TaskFig4, Pattern: f6, K: 3}, ""},
		{"fig4 k=0", TaskConfig{Task: TaskFig4, Pattern: f6}, "needs k ≥ 1"},
		{"fig4 k=-1", TaskConfig{Task: TaskFig4, Pattern: f6, K: -1}, "needs k ≥ 1"},
		{"fig4 2k>n", TaskConfig{Task: TaskFig4, Pattern: dist.NewFailurePattern(5), K: 3}, "needs 2k ≤ n"},
		{"stack k=0", TaskConfig{Task: TaskStack, Pattern: f6}, "needs k ≥ 1"},
		{"stack 2k>n", TaskConfig{Task: TaskStack, Pattern: f6, K: 4}, "needs 2k ≤ n"},
		{"nil pattern", TaskConfig{Task: TaskFig2}, "Pattern is required"},
		{"unknown task", TaskConfig{Task: 9, Pattern: f6, K: 1}, "unknown TaskConfig.Task"},
		{"zero task", TaskConfig{Pattern: f6, K: 1}, "unknown TaskConfig.Task"},
	} {
		_, err := tc.cfg.SimConfig()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

// handBuilt is the run each route was put together from before TaskConfig:
// its own oracle, program and proposals, stabilizing at 20.
func handBuilt(t *testing.T, task Task, f *dist.FailurePattern, k int) sim.Config {
	t.Helper()
	props := agreement.DistinctProposals(f.N())
	x := dist.RangeSet(1, dist.ProcID(2*k))
	cfg := sim.Config{Pattern: f, StopWhenDecided: true, DisableTrace: true}
	var err error
	switch task {
	case TaskFig2:
		cfg.History, err = NewSigmaOracle(f, dist.NewProcSet(1, 2), 20, SigmaCanonical)
		cfg.Program = Fig2Program(props)
	case TaskFig4:
		cfg.History, err = NewSigmaKOracle(f, x, 20, SigmaKCanonical)
		cfg.Program = Fig4Program(props)
	case TaskStack:
		cfg.History = fd.NewSigmaS(f, x, 20)
		cfg.Program = func(p dist.ProcID, nn int) sim.Automaton {
			return sim.NewStack(NewFig5(p, x), NewFig4(p, nn, props[p-1]))
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestTaskConfigMatchesHandBuilt runs every route from TaskConfig and from
// its hand-built reference on the same seeds: all correct, an active
// process crashed at 0, and a non-active crashing mid-run. The runs must
// agree step for step in their outcome, and pass the task.
func TestTaskConfigMatchesHandBuilt(t *testing.T) {
	const n, seeds = 6, 20
	for _, route := range []struct {
		task Task
		k    int
	}{{TaskFig2, 1}, {TaskFig4, 2}, {TaskStack, 2}} {
		for _, crash := range []struct {
			name string
			p    dist.ProcID
			at   dist.Time
		}{{"all correct", 0, 0}, {"active p2 at 0", 2, 0}, {"non-active p6 at 15", n, 15}} {
			f := dist.NewFailurePattern(n)
			if crash.p != 0 {
				f.CrashAt(crash.p, crash.at)
			}
			task := TaskConfig{Task: route.task, Pattern: f, K: route.k}
			got, err := task.SimConfig()
			if err != nil {
				t.Fatal(err)
			}
			want := handBuilt(t, route.task, f, route.k)
			got.Scheduler, want.Scheduler = sim.NewRandomScheduler(0), sim.NewRandomScheduler(0)
			rg, err := sim.NewRunner(got)
			if err != nil {
				t.Fatal(err)
			}
			rw, err := sim.NewRunner(want)
			if err != nil {
				t.Fatal(err)
			}
			for seed := int64(0); seed < seeds; seed++ {
				a, err := rg.Reset(seed).Run()
				if err != nil {
					t.Fatal(err)
				}
				b, err := rw.Reset(seed).Run()
				if err != nil {
					t.Fatal(err)
				}
				if a.Steps != b.Steps || a.MessagesSent != b.MessagesSent || a.Reason != b.Reason ||
					!reflect.DeepEqual(a.Decisions, b.Decisions) || !reflect.DeepEqual(a.DecideTime, b.DecideTime) {
					t.Fatalf("%v %s seed %d: TaskConfig run %d steps %d msgs %v %v, hand-built %d steps %d msgs %v %v",
						route.task, crash.name, seed, a.Steps, a.MessagesSent, a.Reason, a.Decisions,
						b.Steps, b.MessagesSent, b.Reason, b.Decisions)
				}
				if err := task.Check(seed, a); err != nil {
					t.Fatalf("%v %s: %v", route.task, crash.name, err)
				}
			}
		}
	}
}
