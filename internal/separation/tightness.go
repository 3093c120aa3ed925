package separation

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/sim"
)

// TightnessConfig parameterizes the Theorem 12/13 tightness experiment.
type TightnessConfig struct {
	// N, K as in the paper, 1 ≤ k ≤ n/2, n−k ≥ 2 and n ≤ dist.MaxProcs.
	N, K int
	// Seed drives the fair scheduler.
	Seed int64
}

// tightnessHorizon bounds the tightness run.
const tightnessHorizon = 20_000

// Tightness exhibits a run in which Figure 4 over σ₂ₖ decides exactly n−k
// distinct values — the executable content of Theorem 13: the failure
// information sufficient for a 2k-register is not sufficient for
// ((n−k)−1)-set agreement, so Figure 4's bound cannot be improved.
//
// Construction: the high half of the active set crashes at time 0, the
// one-sided σ₂ₖ history reveals only low-half trust (valid: completeness
// and non-triviality hold), and every (D, ·) message from the non-active
// processes to the actives is delayed until the actives have decided. The
// low half then exits its read loop via the `until` guard and decides its
// own k values; the n−2k non-actives decide their own values: n−k distinct
// values in total.
//
// The step from this experiment to the full theorem (which quantifies over
// all algorithms) is the paper's black-box reduction to the k-set-agreement
// impossibility in shared memory [Saks-Zaharoglou, Herlihy-Shavit,
// Borowsky-Gafni], which is not executable; see DESIGN.md.
func Tightness(cfg TightnessConfig) (*Certificate, error) {
	run, task, err := tightnessRun(cfg)
	if err != nil {
		return nil, err
	}
	res, err := sim.Run(run)
	if err != nil {
		return nil, fmt.Errorf("separation: tightness run: %w", err)
	}
	n, k := cfg.N, cfg.K
	rep := task.Report(res)
	if !rep.OK() {
		return nil, fmt.Errorf("separation: tightness run unexpectedly violates (n−k)-set agreement: %s", rep)
	}
	if rep.Distinct != n-k {
		return nil, fmt.Errorf("separation: tightness run decided %d distinct values, expected exactly n−k=%d", rep.Distinct, n-k)
	}
	return &Certificate{
		Lemma:    "Tightness (Thm 13)",
		Property: "agreement",
		Detail: fmt.Sprintf("Figure 4 over σ₂ₖ decided exactly n−k=%d distinct values (n=%d, k=%d): the (n−k−1)-set agreement bound is unreachable on this route",
			n-k, n, k),
	}, nil
}

// tightnessRun validates cfg and builds the tightness run: Figure 4 over the
// one-sided σ₂ₖ history, with the high half of the active set crashed at
// time 0 and every message into the active set held until the low half
// decided. It also returns the task whose Report judges the run.
func tightnessRun(cfg TightnessConfig) (sim.Config, core.TaskConfig, error) {
	if cfg.N > dist.MaxProcs {
		return sim.Config{}, core.TaskConfig{}, fmt.Errorf("separation: tightness needs n ≤ %d, got %d", dist.MaxProcs, cfg.N)
	}
	if cfg.K < 1 || 2*cfg.K > cfg.N {
		return sim.Config{}, core.TaskConfig{}, fmt.Errorf("separation: need 1 ≤ k ≤ n/2, got n=%d k=%d", cfg.N, cfg.K)
	}
	if cfg.N-cfg.K < 2 {
		return sim.Config{}, core.TaskConfig{}, fmt.Errorf("separation: tightness needs n−k ≥ 2, got n=%d k=%d: (n−k−1)-set agreement is then vacuous", cfg.N, cfg.K)
	}
	task := core.TaskConfig{Task: core.TaskFig4, K: cfg.K}
	active := task.Active()
	low, high := core.Halves(active)
	task.Pattern = dist.CrashPattern(cfg.N, high.Members()...)
	run, err := task.SimConfig()
	if err != nil {
		return sim.Config{}, core.TaskConfig{}, err
	}
	// The adversary: the one-sided history and the holding scheduler below.
	if run.History, err = core.NewSigmaKOracle(task.Pattern, active, 3, core.SigmaKTrustLow); err != nil {
		return sim.Config{}, core.TaskConfig{}, fmt.Errorf("separation: tightness oracle: %w", err)
	}
	// Delay every message into the active set until all low-half processes
	// decided: the asynchronous adversary makes each low process exit its
	// loop on σ₂ₖ information alone, before any (D, ·) value — a
	// neighbour's or a non-active's — can be adopted.
	hold := &holdScheduler{inner: sim.NewRandomScheduler(cfg.Seed), held: active, until: low}
	hold.view.Pending = hold.heldPending // bound once, so Next allocates nothing
	run.Scheduler, run.MaxSteps = hold, tightnessHorizon
	run.StopWhen = func(s *sim.Snapshot) bool {
		hold.decided = hold.decided.Union(s.DecidedSet().Intersect(low))
		return false
	}
	return run, task, nil
}

// holdScheduler holds every message into held until every process of until
// decided (the run's StopWhen records decided): the inner scheduler sees no
// message pending at a held process, and a step it picks there is null.
// RandomScheduler draws its null-step coin only when a message is pending,
// so it draws as it would if the held messages were undeliverable.
type holdScheduler struct {
	inner                sim.Scheduler
	held, until, decided dist.ProcSet
	view                 sim.View              // the inner scheduler's view while holding
	pending              func(dist.ProcID) int // the runner's Pending
}

func (h *holdScheduler) heldPending(p dist.ProcID) int {
	if h.held.Contains(p) {
		return 0
	}
	return h.pending(p)
}

// Next implements sim.Scheduler.
func (h *holdScheduler) Next(v *sim.View) (sim.Choice, bool) {
	if h.until.SubsetOf(h.decided) {
		return h.inner.Next(v)
	}
	h.pending, h.view.Now, h.view.N, h.view.Alive = v.Pending, v.Now, v.N, v.Alive
	c, ok := h.inner.Next(&h.view)
	if ok && h.held.Contains(c.Proc) {
		c.Mode = sim.DeliverNone
	}
	return c, ok
}
