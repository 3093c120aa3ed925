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
	// Horizon bounds the run. Default 20000.
	Horizon int64
}

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
	if cfg.N > dist.MaxProcs {
		return nil, fmt.Errorf("separation: tightness needs n ≤ %d, got %d", dist.MaxProcs, cfg.N)
	}
	if cfg.K < 1 || 2*cfg.K > cfg.N {
		return nil, fmt.Errorf("separation: need 1 ≤ k ≤ n/2, got n=%d k=%d", cfg.N, cfg.K)
	}
	if cfg.N-cfg.K < 2 {
		return nil, fmt.Errorf("separation: tightness needs n−k ≥ 2, got n=%d k=%d: (n−k−1)-set agreement is then vacuous", cfg.N, cfg.K)
	}
	if cfg.Horizon <= 0 {
		cfg.Horizon = 20_000
	}
	n, k := cfg.N, cfg.K
	task := core.TaskConfig{Task: core.TaskFig4, Pattern: dist.NewFailurePattern(n), K: k}
	f, active := task.Pattern, task.Active()
	low, high := core.Halves(active)
	for _, p := range high.Members() {
		f.CrashAt(p, 0)
	}
	run, err := task.SimConfig()
	if err != nil {
		return nil, err
	}
	// The adversary: the one-sided history and the delivery filter below.
	if run.History, err = core.NewSigmaKOracle(f, active, 3, core.SigmaKTrustLow); err != nil {
		return nil, fmt.Errorf("separation: tightness oracle: %w", err)
	}
	var decidedLow dist.ProcSet
	run.Scheduler, run.MaxSteps = sim.NewRandomScheduler(cfg.Seed), cfg.Horizon
	// Delay every message into the active set until all low-half processes
	// decided: the asynchronous adversary makes each low process exit its
	// loop on σ₂ₖ information alone, before any (D, ·) value — a
	// neighbour's or a non-active's — can be adopted.
	run.DeliveryFilter = func(m *sim.Message, now dist.Time) bool {
		return !active.Contains(m.To) || low.SubsetOf(decidedLow)
	}
	run.StopWhen = func(s *sim.Snapshot) bool {
		low.ForEach(func(p dist.ProcID) {
			if _, ok := s.Decided(p); ok {
				decidedLow = decidedLow.Add(p)
			}
		})
		return false
	}
	res, err := sim.Run(run)
	if err != nil {
		return nil, fmt.Errorf("separation: tightness run: %w", err)
	}
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
