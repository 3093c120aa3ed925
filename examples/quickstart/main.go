// Quickstart: solve set agreement among 5 processes with the paper's σ
// failure detector (Figure 2), then check the task properties.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/agreement"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/sim"
)

func main() {
	const n = 5
	// A failure pattern: p4 crashes at time 12, everyone else is correct.
	pattern := dist.NewFailurePattern(n)
	pattern.CrashAt(4, 12)

	// Every process proposes a distinct value and runs Figure 2 over σ,
	// whose active pair is {p1, p2}; the canonical valid history stabilizes
	// at time 20.
	task := core.TaskConfig{Task: core.TaskFig2, Pattern: pattern}
	cfg, err := task.SimConfig()
	if err != nil {
		log.Fatal(err)
	}
	cfg.Scheduler = sim.NewRandomScheduler(42)
	res, err := sim.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}

	report := task.Report(res)
	fmt.Printf("pattern:   %v\n", pattern)
	fmt.Printf("proposals: %v\n", task.Proposals())
	fmt.Printf("result:    %s (after %d steps, %d messages)\n", report, res.Steps, res.MessagesSent)
	for p := dist.ProcID(1); p <= n; p++ {
		if v, ok := res.Decisions[p].(agreement.Value); ok {
			fmt.Printf("  p%d decided %d at t=%d\n", int(p), int64(v), int64(res.DecideTime[p]))
		} else {
			fmt.Printf("  p%d crashed before deciding\n", int(p))
		}
	}
	if !report.OK() {
		log.Fatal("set agreement violated")
	}
}
