// Register example: emulate a {p1,p2}-register over message passing with
// ABD quorums from Σ_S, run concurrent reads and writes while a replica
// crashes, and check the history is linearizable — the "sharing" side of the
// paper, built exactly the way its model prescribes (Proposition 1,
// sufficiency direction).
//
//	go run ./examples/register
package main

import (
	"fmt"
	"log"

	"repro/internal/dist"
	"repro/internal/register"
	"repro/internal/sim"
)

func main() {
	const n = 5
	pattern := dist.NewFailurePattern(n)
	pattern.CrashAt(5, 60) // a replica crashes mid-run; quorums adapt

	// The S-register is the store with one key; its history is key 0's.
	s := dist.NewProcSet(1, 2) // the S of the S-register
	scripts := make([][]register.KeyedOp, n)
	scripts[0] = []register.KeyedOp{
		{Kind: register.WriteOp, Arg: 1001}, {Kind: register.ReadOp},
		{Kind: register.WriteOp, Arg: 1002}, {Kind: register.ReadOp},
	}
	scripts[1] = []register.KeyedOp{
		{Kind: register.ReadOp}, {Kind: register.WriteOp, Arg: 2001}, {Kind: register.ReadOp},
	}
	cfg, err := register.StoreSweepConfig{
		Pattern: pattern, S: s, Store: register.StoreConfig{Keys: 1, Window: 1},
		Scripts: scripts, Stab: 100, MaxSteps: 60_000,
	}.SimConfig()
	if err != nil {
		log.Fatal(err)
	}
	cfg.Scheduler = sim.NewRandomScheduler(7)
	res, err := sim.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}

	ops := register.ExtractKeyedOps(res.Trace)[0]
	ok, err := register.CheckLinearizable(ops, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ABD %v-register over Σ_S on %v\n", s, pattern)
	for _, o := range ops {
		fmt.Println(" ", o)
	}
	fmt.Printf("linearizable: %v\n", ok)
	if !ok {
		log.Fatal("history should have been linearizable")
	}
}
