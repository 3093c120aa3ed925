// K-sweep example: the Figure 4 algorithm across the whole (n, k) range —
// the workload behind Section 4's generalization. For each k it runs the
// full message-passing pipeline Σ_X₂ₖ → σ₂ₖ → (n−k)-set agreement under an
// adversarial crash pattern and reports how many distinct values were
// decided against the paper's n−k bound.
//
//	go run ./examples/ksweep
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/sim"
)

func main() {
	const n = 10
	fmt.Printf("n = %d: Σ_X₂ₖ →(Fig 5)→ σ₂ₖ →(Fig 4)→ (n−k)-set agreement\n", n)
	fmt.Printf("%-4s %-10s %-8s %-9s %s\n", "k", "|X|=2k", "bound", "distinct", "status")
	for k := 1; 2*k <= n; k++ {
		pattern := dist.NewFailurePattern(n)
		// Crash one active and one non-active process mid-run when possible.
		pattern.CrashAt(1, 15)
		if 2*k < n {
			pattern.CrashAt(dist.ProcID(n), 25)
		}
		task := core.TaskConfig{Task: core.TaskStack, Pattern: pattern, K: k, Stab: 40}
		cfg, err := task.SimConfig()
		if err != nil {
			log.Fatal(err)
		}
		cfg.Scheduler = sim.NewRandomScheduler(int64(k))
		res, err := sim.Run(cfg)
		if err != nil {
			log.Fatal(err)
		}
		rep := task.Report(res)
		status := "ok"
		if !rep.OK() {
			status = rep.String()
		}
		fmt.Printf("%-4d %-10d %-8d %-9d %s\n", k, 2*k, task.SetK(), rep.Distinct, status)
		if !rep.OK() {
			log.Fatal("bound violated — reproduction bug")
		}
	}
}
