// Command sharing is the CLI front-end of the reproduction of "Sharing is
// Harder than Agreeing" (Delporte-Gallet, Fauconnier, Guerraoui, PODC 2008).
//
// Subcommands:
//
//	lattice         regenerate the Figure 1 hardness lattice
//	setagreement    run Figure 2 (set agreement from σ)
//	kset            run Figure 4 ((n−k)-set agreement from σ₂ₖ)
//	register        run the ABD S-register over Σ_S and check linearizability
//	consensus       run the Ω+Σ consensus baseline
//	counterexample  run a refutation harness (lemma7 | lemma11 | lemma15 | tightness)
//	emulate         run an emulation and validate the emulated history (fig3 | fig5 | fig6)
//	majority-sigma  emulate Σ from a correct majority and validate it
//	hierarchy       derive the failure-detector strictness chains
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/agreement"
	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/fd"
	"repro/internal/hierarchy"
	"repro/internal/lattice"
	"repro/internal/register"
	"repro/internal/separation"
	"repro/internal/sim"
	"repro/internal/sweep"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "sharing:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		usage()
		return fmt.Errorf("missing subcommand")
	}
	switch args[0] {
	case "lattice":
		return cmdLattice(args[1:])
	case "setagreement":
		return cmdSetAgreement(args[1:])
	case "kset":
		return cmdKSet(args[1:])
	case "register":
		return cmdRegister(args[1:])
	case "store":
		return cmdStore(args[1:])
	case "consensus":
		return cmdConsensus(args[1:])
	case "counterexample":
		return cmdCounterexample(args[1:])
	case "emulate":
		return cmdEmulate(args[1:])
	case "majority-sigma":
		return cmdMajoritySigma(args[1:])
	case "hierarchy":
		return cmdHierarchy(args[1:])
	case "explore":
		return cmdExplore(args[1:])
	case "sweep":
		return cmdSweep(args[1:])
	case "help", "-h", "--help":
		usage()
		return nil
	default:
		usage()
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: sharing <subcommand> [flags]

subcommands:
  lattice         -n 6 -runs 5 -seed 1 -workers 0
  setagreement    -n 5 -seed 1 -crash "3,4"
  kset            -n 6 -k 2 -seed 1 -crash "5"
  register        -n 5 -seed 1
  store           -n 5 -keys 16 -shards 1 -clients 3 -window 4 -ops 16
                  -seeds 20 -workers 0 -skew 1.2 -write 0.5 -crash "5@40"
                  -crashshard "1@40" -recover "5@120" -piggyback
                  -adaptive -maxwindow 16 -stall 16
                  -loss 0.05 -dup 0.05 -delay 3 -faultseed 7 -partition "1:2@20-60"
                  -retransmit -rto 32 -maxrto 256 -stalllimit 20000
                  -openloop -rate 0.25 -fastread
  consensus       -n 5 -seed 1 -crash "5"  [fault mode: -recover "5@200" -loss 0.05
                  -dup 0.05 -delay 3 -partition "1>2@30-120" -seeds 20 -workers 0]
  counterexample  lemma7|lemma11|lemma15|tightness  [-n 5 -k 2 -seed 1]
  emulate         fig3|fig5|fig6  [-n 5 -seed 1]
  majority-sigma  -n 5 -seed 1
  hierarchy       -n 6 -k 2 -seed 1 -runs 3 -workers 0
  explore         -fig fig2|fig4 -n 3 -k 1 -depth 12 -states 1048576 -workers 0 -crash "3"
  sweep           -fig fig2|fig4|consensus -n 5 -k 2 -seeds 200 -workers 0 -scenarios ";5;5@40"

crash lists are comma-separated processes with optional crash times:
"3,4" crashes p3 and p4 at time 0, "3@40,4" crashes p3 at time 40.
-recover entries are "p@t" and pair with a crash strictly before t (the
process rejoins with its volatile state lost). partition entries cut
"i:j" both ways or "i>j" one-way during [t1,t2).`)
}

func cmdHierarchy(args []string) error {
	fs := flag.NewFlagSet("hierarchy", flag.ContinueOnError)
	n := fs.Int("n", 6, "system size")
	k := fs.Int("k", 2, "k (σ₂ₖ side)")
	seed := fs.Int64("seed", 1, "seed")
	runs := fs.Int64("runs", 3, "seeds per reduction edge")
	workers := fs.Int("workers", 0, "sweep workers (0 = GOMAXPROCS)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := checkN(*n); err != nil {
		return err
	}
	rep, err := hierarchy.Build(hierarchy.Config{N: *n, K: *k, Seed: *seed, Runs: *runs, Workers: *workers})
	if err != nil {
		return err
	}
	fmt.Print(rep.Render())
	return nil
}

// cmdExplore bounded-model-checks a figure: every interleaving and message
// reordering up to -depth is enumerated on a -workers pool and checked
// against the task's safety properties.
func cmdExplore(args []string) error {
	fs := flag.NewFlagSet("explore", flag.ContinueOnError)
	fig := fs.String("fig", "fig2", "algorithm to model-check: fig2|fig4")
	n := fs.Int("n", 3, "system size")
	k := fs.Int("k", 1, "k (fig4: active set has 2k processes)")
	depth := fs.Int("depth", 12, "schedule-length bound")
	states := fs.Int("states", 1<<20, "visited-state soft cap")
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	crash := fs.String("crash", "", "crash list; exploration runs under TimeCap 1, so only time-0 crashes are admissible")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *depth < 1 || *states < 1 {
		return fmt.Errorf("explore needs -depth ≥ 1 and -states ≥ 1, got -depth %d -states %d", *depth, *states)
	}
	f, err := crashPattern(*n, *crash)
	if err != nil {
		return err
	}
	props := agreement.DistinctProposals(*n)
	cfg := sim.ExploreConfig{
		Pattern:   f,
		MaxDepth:  *depth,
		MaxStates: *states,
		TimeCap:   1,
		Workers:   *workers,
	}
	var taskK int
	switch *fig {
	case "fig2":
		oracle, err := core.NewSigmaOracle(f, dist.NewProcSet(1, 2), 1, core.SigmaCanonical)
		if err != nil {
			return err
		}
		cfg.History, cfg.Program = oracle, core.Fig2Program(props)
		taskK = *n - 1
	case "fig4":
		active, err := activeSet(*n, *k)
		if err != nil {
			return err
		}
		oracle, err := core.NewSigmaKOracle(f, active, 1, core.SigmaKCanonical)
		if err != nil {
			return err
		}
		cfg.History, cfg.Program = oracle, core.Fig4Program(props)
		taskK = *n - *k
	default:
		return fmt.Errorf("explore: unknown -fig %q (want fig2|fig4)", *fig)
	}
	cfg.Check = agreement.SafetyCheck(taskK, props)
	start := time.Now()
	res, err := sim.Explore(cfg)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	fmt.Printf("%s on %v: %d states, %d steps in %v (%.0f states/sec), truncated=%v\n",
		*fig, f, res.StatesVisited, res.StepsExecuted, elapsed.Round(time.Millisecond),
		float64(res.StatesVisited)/elapsed.Seconds(), res.Truncated)
	if res.Violation != "" {
		return fmt.Errorf("%s violates %d-set agreement at depth %d: %s", *fig, taskK, res.ViolationDepth, res.Violation)
	}
	fmt.Printf("no reachable violation of %d-set agreement safety within depth %d\n", taskK, *depth)
	return nil
}

// cmdSweep runs -seeds seeded runs per crash scenario on the concurrent
// sweep engine and prints aggregate statistics per scenario.
func cmdSweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fig := fs.String("fig", "fig2", "workload: fig2|fig4|consensus")
	n := fs.Int("n", 5, "system size")
	k := fs.Int("k", 2, "k (fig4: active set has 2k processes)")
	seeds := fs.Int64("seeds", 200, "seeds per scenario")
	seedStart := fs.Int64("seed", 0, "first seed")
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	scenarios := fs.String("scenarios", "", `semicolon-separated crash scenarios (empty entry = failure-free); default ";N;N@40" (failure-free, pN initially dead, pN crashing mid-run)`)
	if err := fs.Parse(args); err != nil {
		return err
	}
	specs := []string{"", fmt.Sprintf("%d", *n), fmt.Sprintf("%d@40", *n)}
	if *scenarios != "" {
		specs = strings.Split(*scenarios, ";")
	}
	props := agreement.DistinctProposals(*n)
	for _, spec := range specs {
		f, err := crashPattern(*n, spec)
		if err != nil {
			return err
		}
		var mkSim func() sim.Config
		var taskK int
		switch *fig {
		case "fig2":
			oracle, err := core.NewSigmaOracle(f, dist.NewProcSet(1, 2), 20, core.SigmaCanonical)
			if err != nil {
				return err
			}
			mkSim = func() sim.Config {
				return sim.Config{
					Pattern: f, History: oracle, Program: core.Fig2Program(props),
					StopWhenDecided: true, DisableTrace: true,
				}
			}
			taskK = *n - 1
		case "fig4":
			active, err := activeSet(*n, *k)
			if err != nil {
				return err
			}
			oracle, err := core.NewSigmaKOracle(f, active, 20, core.SigmaKCanonical)
			if err != nil {
				return err
			}
			mkSim = func() sim.Config {
				return sim.Config{
					Pattern: f, History: oracle, Program: core.Fig4Program(props),
					StopWhenDecided: true, DisableTrace: true,
				}
			}
			taskK = *n - *k
		case "consensus":
			mkSim = func() sim.Config {
				// The Ω+Σ oracle caches its last boxed output, so every
				// worker builds its own.
				return sim.Config{
					Pattern: f, History: consensus.NewOracle(f, 25), Program: consensus.Program(props),
					MaxSteps: 200_000, StopWhenDecided: true, DisableTrace: true,
				}
			}
			taskK = 1
		default:
			return fmt.Errorf("sweep: unknown -fig %q (want fig2|fig4|consensus)", *fig)
		}
		start := time.Now()
		res, err := sweep.Run(sweep.Config{
			Sim:       mkSim,
			SeedStart: *seedStart,
			Seeds:     *seeds,
			Workers:   *workers,
			Check: func(seed int64, r *sim.Result) error {
				if rep := agreement.Check(f, taskK, props, r); !rep.OK() {
					return fmt.Errorf("%s", rep)
				}
				return nil
			},
		})
		if err != nil {
			return err
		}
		elapsed := time.Since(start)
		scenName := spec
		if scenName == "" {
			scenName = "failure-free"
		}
		fmt.Printf("%s %v [%s]: %s\n  %d runs in %v (%.0f runs/sec)\n",
			*fig, f, scenName, res, res.Runs, elapsed.Round(time.Millisecond),
			float64(res.Runs)/elapsed.Seconds())
		if res.Failures > 0 {
			return fmt.Errorf("sweep: %s scenario %q: %d of %d runs violated %d-set agreement (first seed %d: %v)",
				*fig, scenName, res.Failures, res.Runs, taskK, res.FirstFailSeed, res.FirstFailErr)
		}
	}
	return nil
}

func cmdLattice(args []string) error {
	fs := flag.NewFlagSet("lattice", flag.ContinueOnError)
	n := fs.Int("n", 6, "system size")
	runs := fs.Int("runs", 5, "runs per positive relation")
	seed := fs.Int64("seed", 1, "base seed")
	workers := fs.Int("workers", 0, "sweep workers (0 = GOMAXPROCS)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := checkN(*n); err != nil {
		return err
	}
	rep, err := lattice.Build(lattice.Config{N: *n, RunsPerRelation: *runs, Seed: *seed, Workers: *workers})
	if err != nil {
		return err
	}
	fmt.Print(rep.Render())
	return nil
}

func cmdSetAgreement(args []string) error {
	fs := flag.NewFlagSet("setagreement", flag.ContinueOnError)
	n := fs.Int("n", 5, "system size")
	seed := fs.Int64("seed", 1, "scheduler seed")
	crash := fs.String("crash", "", "processes crashed from time 0, e.g. \"3,4\"")
	if err := fs.Parse(args); err != nil {
		return err
	}
	f, err := crashPattern(*n, *crash)
	if err != nil {
		return err
	}
	props := agreement.DistinctProposals(*n)
	oracle, err := core.NewSigmaOracle(f, dist.NewProcSet(1, 2), 20, core.SigmaCanonical)
	if err != nil {
		return err
	}
	res, err := sim.Run(sim.Config{
		Pattern: f, History: oracle, Program: core.Fig2Program(props),
		Scheduler: sim.NewRandomScheduler(*seed), StopWhenDecided: true,
	})
	if err != nil {
		return err
	}
	rep := agreement.Check(f, *n-1, props, res)
	fmt.Printf("Figure 2 on %v (σ active {p1,p2}): %s\n", f, rep)
	printDecisions(rep.Decisions)
	return nil
}

func cmdKSet(args []string) error {
	fs := flag.NewFlagSet("kset", flag.ContinueOnError)
	n := fs.Int("n", 6, "system size")
	k := fs.Int("k", 2, "k (active set has 2k processes)")
	seed := fs.Int64("seed", 1, "scheduler seed")
	crash := fs.String("crash", "", "processes crashed from time 0")
	if err := fs.Parse(args); err != nil {
		return err
	}
	f, err := crashPattern(*n, *crash)
	if err != nil {
		return err
	}
	active, err := activeSet(*n, *k)
	if err != nil {
		return err
	}
	props := agreement.DistinctProposals(*n)
	oracle, err := core.NewSigmaKOracle(f, active, 20, core.SigmaKCanonical)
	if err != nil {
		return err
	}
	res, err := sim.Run(sim.Config{
		Pattern: f, History: oracle, Program: core.Fig4Program(props),
		Scheduler: sim.NewRandomScheduler(*seed), StopWhenDecided: true,
	})
	if err != nil {
		return err
	}
	rep := agreement.Check(f, *n-*k, props, res)
	fmt.Printf("Figure 4 on %v (σ₂ₖ active %v): %s\n", f, active, rep)
	printDecisions(rep.Decisions)
	return nil
}

func cmdRegister(args []string) error {
	fs := flag.NewFlagSet("register", flag.ContinueOnError)
	n := fs.Int("n", 5, "system size")
	seed := fs.Int64("seed", 1, "scheduler seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	f, err := newPattern(*n)
	if err != nil {
		return err
	}
	if *n < 2 {
		return fmt.Errorf("register needs -n ≥ 2 (the register is shared by S = {p1,p2})")
	}
	s := dist.NewProcSet(1, 2)
	scripts := make([][]register.KeyedOp, *n)
	scripts[0] = []register.KeyedOp{
		{Kind: register.WriteOp, Arg: 1001}, {Kind: register.ReadOp},
		{Kind: register.WriteOp, Arg: 1002}, {Kind: register.ReadOp},
	}
	scripts[1] = []register.KeyedOp{{Kind: register.ReadOp}, {Kind: register.WriteOp, Arg: 2001}, {Kind: register.ReadOp}}
	cfg, err := register.StoreSweepConfig{
		Pattern: f, S: s, Store: register.StoreConfig{Keys: 1, Window: 1},
		Scripts: scripts, Stab: 15, MaxSteps: 60_000,
	}.SimConfig()
	if err != nil {
		return err
	}
	cfg.Scheduler = sim.NewRandomScheduler(*seed)
	res, err := sim.Run(cfg)
	if err != nil {
		return err
	}
	ops := register.KeyedOps(res.Ops)[0]
	ok, err := register.CheckLinearizable(ops, 0)
	if err != nil {
		return err
	}
	fmt.Printf("ABD {p1,p2}-register over Σ_S: %d operations, linearizable=%v\n", len(ops), ok)
	for _, o := range ops {
		fmt.Println(" ", o)
	}
	if !ok {
		return fmt.Errorf("history not linearizable")
	}
	return nil
}

// cmdStore sweeps the sharded keyed register store: a zipf-skewed keyed
// workload on pipelined store clients routed across -shards replica groups,
// one run per scheduler seed on the sweep engine, every per-key history
// checked for linearizability. -crashshard kills one shard's whole replica
// group; the sweep verdict then demands that only that shard's operations
// stall.
func cmdStore(args []string) error {
	fs := flag.NewFlagSet("store", flag.ContinueOnError)
	n := fs.Int("n", 5, "system size")
	keys := fs.Int("keys", 16, "number of keyed registers")
	shards := fs.Int("shards", 1, "replica-group shards the key space is partitioned across")
	clients := fs.Int("clients", 3, "store members: S = {p1..pClients}")
	window := fs.Int("window", 4, "client pipelining window per shard (outstanding ops on distinct keys)")
	ops := fs.Int("ops", 16, "scripted ops per client")
	seeds := fs.Int64("seeds", 20, "scheduler seeds to sweep")
	seedStart := fs.Int64("seed", 0, "first scheduler seed")
	wseed := fs.Int64("wseed", 1, "workload generator seed")
	workers := fs.Int("workers", 0, "sweep workers (0 = GOMAXPROCS)")
	crash := fs.String("crash", "", "crash list, e.g. \"5,4@40\"")
	crashShard := fs.String("crashshard", "", "crash a whole shard's replica group, e.g. \"1\" or \"1@40\"")
	recov := fs.String("recover", "", "recovery list, e.g. \"5@120\": the crashed process rejoins at t with its volatile state lost (pair each entry with a -crash/-crashshard entry strictly before t; recovered processes stay outside the correctness set)")
	skew := fs.Float64("skew", 1.2, "zipf skew within each shard's keys (0 = uniform)")
	write := fs.Float64("write", register.DefaultWriteRatio, "write ratio (0 = read-only)")
	piggyback := fs.Bool("piggyback", false, "fold all same-destination traffic of a step (requests of every shard plus pending replies) into one frame per (src,dst)")
	adaptive := fs.Bool("adaptive", false, "replace the fixed per-shard window with the AIMD controller (grows while ops complete, halves on shard stall)")
	maxWindow := fs.Int("maxwindow", 0, "adaptive growth cap (0 = 4×window; requires -adaptive)")
	stall := fs.Int("stall", 0, "client steps a shard may stall before its window halves (0 = default; requires -adaptive)")
	loss := fs.Float64("loss", 0, "per-message loss probability in [0,1) (requires -retransmit)")
	dup := fs.Float64("dup", 0, "per-message duplication probability in [0,1)")
	delay := fs.Int64("delay", 0, "maximum extra per-message delivery delay in ticks")
	faultSeed := fs.Int64("faultseed", 0, "fault-plan seed, mixed with each run's scheduler seed")
	partition := fs.String("partition", "", "scripted shard partitions, e.g. \"1:2@20-60\" symmetric or \"1>2@20-60\" one-way (t2 may be \"inf\"; requires -retransmit)")
	retransmit := fs.Bool("retransmit", false, "arm per-op retransmission with exponential backoff (required under -loss / -partition)")
	rto := fs.Int("rto", 0, "initial retransmission timeout in client steps (0 = default; requires -retransmit)")
	maxRTO := fs.Int("maxrto", 0, "retransmission backoff cap in client steps (0 = 8×rto; requires -retransmit)")
	stallLimit := fs.Int64("stalllimit", 0, "end a run that makes no progress for this many ticks with reason \"stalled\" (0 = off)")
	openLoop := fs.Bool("openloop", false, "open-loop clients: ops become eligible on a jittered seeded arrival schedule instead of on window refill, and latency is measured from arrival (queueing delay included)")
	rate := fs.Float64("rate", 0, "open-loop offered load in ops per client step; the mean inter-arrival gap is round(1/rate) (0 = back-to-back arrivals; requires -openloop)")
	fastRead := fs.Bool("fastread", false, "one-phase fast reads: elide the write-back round when the phase-1 quorum is unanimous or its max timestamp is already confirmed at a quorum (composes with every other flag; off = wire-identical to two-phase)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	f, err := crashPattern(*n, *crash)
	if err != nil {
		return err
	}
	s, err := clientSet(*n, *clients)
	if err != nil {
		return err
	}
	if *stallLimit < 0 {
		return fmt.Errorf("-stalllimit %d is negative", *stallLimit)
	}
	storeCfg := register.StoreConfig{
		Keys: *keys, Shards: *shards, Window: *window, Piggyback: *piggyback,
		AdaptiveWindow: *adaptive, MaxWindow: *maxWindow, StallSteps: *stall,
		Retransmit: *retransmit, RTO: *rto, MaxRTO: *maxRTO,
		OpenLoop: *openLoop, ArrivalJitter: *openLoop, FastReads: *fastRead,
	}
	if *openLoop {
		storeCfg.ArrivalSeed = *wseed // decorrelate arrivals from the scheduler seeds
	}
	shardMap, err := storeCfg.ShardMap(*n) // validates the whole store config
	if err != nil {
		return err
	}
	if err := parseShardCrash(f, shardMap, *crashShard); err != nil {
		return err
	}
	if err := parseRecover(f, *recov); err != nil {
		return err
	}
	partitions, err := parsePartition(shardMap, *partition)
	if err != nil {
		return err
	}
	var faults *sim.FaultPlan
	// Any set knob — NaN and negatives included — builds the plan, so
	// FaultPlan.Validate sees and rejects it.
	if *loss != 0 || *dup != 0 || *delay != 0 || len(partitions) > 0 {
		faults = &sim.FaultPlan{
			Seed: *faultSeed, Loss: *loss, Dup: *dup,
			MaxDelay: dist.Time(*delay), Partitions: partitions,
		}
		if err := faults.Validate(*n); err != nil {
			return err
		}
		if (*loss > 0 || len(partitions) > 0) && !*retransmit {
			return fmt.Errorf("-loss/-partition can park operations forever without -retransmit")
		}
	}
	scripts, err := register.GenerateStoreWorkload(register.StoreWorkloadConfig{
		N: *n, S: s, Keys: *keys, Shards: *shards, OpsPerClient: *ops,
		WriteRatio: *write, Skew: *skew, Seed: *wseed,
	})
	if err != nil {
		return err
	}
	sweepCfg := register.StoreSweepConfig{
		Pattern:    f,
		S:          s,
		Store:      storeCfg,
		Scripts:    scripts,
		SeedStart:  *seedStart,
		Seeds:      *seeds,
		Workers:    *workers,
		Faults:     faults,
		StallLimit: *stallLimit,
	}
	// The arrival gap is bounded by the run's step budget, which depends on
	// the scripts and the partitions; it does not change the budget.
	gap, err := openLoopGap(*openLoop, *rate, sweepCfg.EffectiveMaxSteps())
	if err != nil {
		return err
	}
	sweepCfg.Store.ArrivalGap = gap
	start := time.Now()
	res, err := register.StoreSweep(sweepCfg)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	// Throughput counts only correct clients' ops on reachable available
	// shards — those are guaranteed complete by the per-run verification; a
	// crashed client finishes an unknown prefix, and an op routed to a dead
	// or partitioned-away shard may never complete, either of which would
	// inflate the headline number.
	avail := shardMap.Available(f.Correct())
	masks := register.StoreReach(shardMap, faults, f.Correct(), s,
		dist.Time(sweepCfg.EffectiveMaxSteps()))
	opsPerRun := int64(0)
	for _, p := range s.Intersect(f.Correct()).Members() {
		reach := avail
		if masks != nil {
			reach = reach.Intersect(masks[p])
		}
		for _, op := range scripts[p-1] {
			if reach.Has(shardMap.Shard(op.Key)) {
				opsPerRun++
			}
		}
	}
	windowDesc := fmt.Sprintf("window=%d", *window)
	if *adaptive {
		windowDesc = fmt.Sprintf("window=%d..%d(adaptive)", *window, storeCfg.EffectiveMaxWindow())
	}
	fmt.Printf("store on %v, S=%v, keys=%d shards=%d %s piggyback=%v: %d runs × %d scripted ops (%d guaranteed at correct clients)\n",
		f, s, *keys, shardMap.Shards(), windowDesc, *piggyback, res.Runs, register.TotalKeyedOps(scripts), opsPerRun)
	if *openLoop {
		fmt.Printf("  load: openloop gap=%d(jittered)\n", sweepCfg.Store.EffectiveArrivalGap())
	}
	if faults != nil {
		fmt.Printf("  faults: loss=%.3g dup=%.3g maxdelay=%d seed=%d retransmit=%v",
			faults.Loss, faults.Dup, int64(faults.MaxDelay), faults.Seed, *retransmit)
		for _, pt := range faults.Partitions {
			fmt.Printf(" partition=%v", pt)
		}
		fmt.Println()
	}
	if shardMap.Shards() > 1 || *crashShard != "" {
		fmt.Printf("  layout: %s\n", shardMap)
		for sh := 0; sh < shardMap.Shards(); sh++ {
			if !avail.Has(sh) {
				fmt.Printf("  shard %d unavailable: group %v fully crashed (its ops cannot complete; other shards must)\n",
					sh, shardMap.Group(sh))
			}
		}
	}
	if masks != nil {
		for _, p := range s.Intersect(f.Correct()).Members() {
			if cut := avail.Minus(masks[p]); !cut.IsEmpty() {
				fmt.Printf("  client p%d partitioned from shard(s) %s past the horizon: those ops park, the rest must complete\n",
					int(p), shardBits(cut, shardMap.Shards()))
			}
		}
	}
	fmt.Printf("  steps: %s\n  msgs:  %s\n", res.Steps.String(), res.Msgs.String())
	if res.Dropped.Sum > 0 || res.Duplicated.Sum > 0 {
		fmt.Printf("  drops: %s\n  dups:  %s\n", res.Dropped.String(), res.Duplicated.String())
	}
	if res.Lat.Count > 0 {
		// Per-op latency in client steps, one observation per completed op
		// across all passing runs. Open-loop runs measure from arrival, so
		// queueing delay under overload is part of the tail.
		fmt.Printf("  lat:   p50=%d p99=%d p99.9=%d steps | %s\n",
			res.Lat.Quantile(0.50), res.Lat.Quantile(0.99), res.Lat.Quantile(0.999), res.Lat.String())
	}
	if res.LatFaulted.Count > 0 {
		// The fault-exposure split: an op is faulted once it pays at least
		// one retransmit (parked-behind-a-partition ops always do), so the
		// clean percentiles show what fault-free ops pay on a faulty network.
		fmt.Printf("  lat/clean:   p50=%d p99=%d steps (%d ops)\n",
			res.LatClean.Quantile(0.50), res.LatClean.Quantile(0.99), res.LatClean.Count)
		fmt.Printf("  lat/faulted: p50=%d p99=%d steps (%d ops)\n",
			res.LatFaulted.Quantile(0.50), res.LatFaulted.Quantile(0.99), res.LatFaulted.Count)
	}
	if *fastRead {
		fmt.Printf("  fastreads: %d one-phase reads, %d write-back fallbacks across %d runs\n",
			res.FastReads.Sum, res.Fallbacks.Sum, res.Runs)
	}
	passed := res.Runs - res.Failures // completion is only guaranteed for runs that passed verification
	fmt.Printf("  %d completed ops in %v (%.0f ops/sec, %.0f runs/sec)\n",
		opsPerRun*passed, elapsed.Round(time.Millisecond),
		float64(opsPerRun*passed)/elapsed.Seconds(), float64(res.Runs)/elapsed.Seconds())
	if res.Failures > 0 {
		return fmt.Errorf("store: %d of %d runs failed verification (first seed %d: %v)",
			res.Failures, res.Runs, res.FirstFailSeed, res.FirstFailErr)
	}
	fmt.Println("  every per-key history linearizable")
	return nil
}

// shardBits renders an availability set as a shard-index list for
// human-facing degradation messages.
func shardBits(mask register.ShardSet, shards int) string {
	var b strings.Builder
	for sh := 0; sh < shards; sh++ {
		if mask.Has(sh) {
			if b.Len() > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d", sh)
		}
	}
	return b.String()
}

// cmdConsensus runs the Ω+Σ consensus baseline. Without fault flags it is a
// single traced run whose decisions are printed. Any of -recover, -loss,
// -dup, -delay or -partition switches it to the consensus-under-faults
// sweep: -seeds seeded runs on the sweep engine, each checked for validity,
// uniform agreement and termination at every correct process — and at every
// recovered process, which must relearn the decision from the periodic
// decide re-broadcast after its volatile-state wipe.
func cmdConsensus(args []string) error {
	fs := flag.NewFlagSet("consensus", flag.ContinueOnError)
	n := fs.Int("n", 5, "system size")
	seed := fs.Int64("seed", 1, "scheduler seed (first seed in fault mode)")
	crash := fs.String("crash", "", "crash list, e.g. \"5\" or \"4@60\"")
	recov := fs.String("recover", "", "recovery list, e.g. \"4@200\": the crashed process rejoins with its volatile state lost and must relearn the decision (pair with a -crash entry strictly before t)")
	seeds := fs.Int64("seeds", 20, "seeds per sweep (fault mode only)")
	workers := fs.Int("workers", 0, "sweep workers in fault mode (0 = GOMAXPROCS)")
	loss := fs.Float64("loss", 0, "per-message loss probability in [0,1)")
	dup := fs.Float64("dup", 0, "per-message duplication probability in [0,1)")
	delay := fs.Int64("delay", 0, "maximum extra per-message delivery delay in ticks")
	faultSeed := fs.Int64("faultseed", 0, "fault-plan seed, mixed with each run's scheduler seed")
	partition := fs.String("partition", "", "scripted process partitions, e.g. \"1:2@30-120\" symmetric or \"1>2@30-120\" one-way (must heal: consensus termination needs the quorum back)")
	stallLimit := fs.Int64("stalllimit", 0, "end a run that makes no progress for this many ticks with reason \"stalled\" (0 = off)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *stallLimit < 0 {
		return fmt.Errorf("-stalllimit %d is negative", *stallLimit)
	}
	f, err := crashPattern(*n, *crash)
	if err != nil {
		return err
	}
	if err := parseRecover(f, *recov); err != nil {
		return err
	}
	partitions, err := parseProcPartition(*n, *partition)
	if err != nil {
		return err
	}
	var faults *sim.FaultPlan
	// Any set knob — NaN and negatives included — builds the plan, so
	// FaultPlan.Validate sees and rejects it.
	if *loss != 0 || *dup != 0 || *delay != 0 || len(partitions) > 0 {
		faults = &sim.FaultPlan{
			Seed: *faultSeed, Loss: *loss, Dup: *dup,
			MaxDelay: dist.Time(*delay), Partitions: partitions,
		}
	}
	props := agreement.DistinctProposals(*n)
	if faults == nil && !f.HasRecoveries() {
		res, err := sim.Run(sim.Config{
			Pattern: f, History: consensus.NewOracle(f, 25), Program: consensus.Program(props),
			Scheduler: sim.NewRandomScheduler(*seed), MaxSteps: 200_000, StopWhenDecided: true,
		})
		if err != nil {
			return err
		}
		rep := agreement.Check(f, 1, props, res)
		fmt.Printf("Ω+Σ consensus on %v: %s\n", f, rep)
		printDecisions(rep.Decisions)
		return nil
	}
	start := time.Now()
	res, err := consensus.Sweep(consensus.SweepConfig{
		Pattern:    f,
		Proposals:  props,
		Faults:     faults,
		StallLimit: *stallLimit,
		SeedStart:  *seed,
		Seeds:      *seeds,
		Workers:    *workers,
	})
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	fmt.Printf("Ω+Σ consensus under faults on %v: %s\n", f, res)
	if faults != nil {
		fmt.Printf("  faults: loss=%.3g dup=%.3g maxdelay=%d seed=%d",
			faults.Loss, faults.Dup, int64(faults.MaxDelay), faults.Seed)
		for _, pt := range faults.Partitions {
			fmt.Printf(" partition=%v", pt)
		}
		fmt.Println()
	}
	fmt.Printf("  %d runs in %v (%.0f runs/sec)\n",
		res.Runs, elapsed.Round(time.Millisecond), float64(res.Runs)/elapsed.Seconds())
	if res.Failures > 0 {
		return fmt.Errorf("consensus: %d of %d runs failed (first seed %d: %v)",
			res.Failures, res.Runs, res.FirstFailSeed, res.FirstFailErr)
	}
	fmt.Println("  every run: validity, uniform agreement, every correct and recovered process decided")
	return nil
}

func cmdCounterexample(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("counterexample: need lemma7|lemma11|lemma15|tightness")
	}
	which := args[0]
	fs := flag.NewFlagSet("counterexample", flag.ContinueOnError)
	n := fs.Int("n", 5, "system size")
	k := fs.Int("k", 2, "k")
	seed := fs.Int64("seed", 1, "seed")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	if err := checkN(*n); err != nil {
		return err
	}
	var (
		cert *separation.Certificate
		err  error
	)
	switch which {
	case "lemma7":
		if *n < 3 {
			return fmt.Errorf("lemma7 needs -n ≥ 3 (S = {p1,p2} plus an auxiliary correct process), got %d", *n)
		}
		cert, err = separation.Lemma7(separation.Lemma7Config{
			N:         *n,
			Candidate: separation.HeartbeatCandidate(dist.NewProcSet(1, 2), 10),
			Seed:      *seed,
		})
	case "lemma11":
		cert, err = separation.Lemma11(separation.Lemma11Config{
			N: *n, K: *k,
			Candidate: separation.HeartbeatSetCandidate(dist.RangeSet(1, dist.ProcID(2**k)), 10),
			Seed:      *seed,
		})
	case "lemma15":
		cert, err = separation.Lemma15(separation.Lemma15Config{
			N:         *n,
			Candidate: separation.EagerMinCandidate(8),
		})
	case "tightness":
		cert, err = separation.Tightness(separation.TightnessConfig{N: *n, K: *k, Seed: *seed})
	default:
		return fmt.Errorf("unknown counterexample %q", which)
	}
	if err != nil {
		return err
	}
	fmt.Println(cert)
	return nil
}

func cmdEmulate(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("emulate: need fig3|fig5|fig6")
	}
	which := args[0]
	fs := flag.NewFlagSet("emulate", flag.ContinueOnError)
	n := fs.Int("n", 5, "system size")
	seed := fs.Int64("seed", 1, "seed")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	f, err := newPattern(*n)
	if err != nil {
		return err
	}
	horizon := int64(500)
	switch which {
	case "fig3":
		if *n < 2 {
			return fmt.Errorf("fig3 demo needs n ≥ 2 for the pair {p1,p2}, got %d", *n)
		}
		pair := dist.NewProcSet(1, 2)
		res, err := sim.Run(sim.Config{
			Pattern: f, History: fd.NewSigmaS(f, pair, 20), Program: core.Fig3Program(pair),
			Scheduler: sim.NewRandomScheduler(*seed), MaxSteps: horizon,
		})
		if err != nil {
			return err
		}
		hist := &fd.RecordedHistory{Trace: res.Trace}
		vs := core.CheckSigma(f, pair, hist, dist.Time(horizon), dist.Time(horizon*3/4))
		return reportEmulation("Figure 3: σ from Σ{p,q}", vs)
	case "fig5":
		x := dist.RangeSet(1, 4)
		if *n < 4 {
			return fmt.Errorf("fig5 demo needs n ≥ 4")
		}
		res, err := sim.Run(sim.Config{
			Pattern: f, History: fd.NewSigmaS(f, x, 20), Program: core.Fig5Program(x),
			Scheduler: sim.NewRandomScheduler(*seed), MaxSteps: horizon,
		})
		if err != nil {
			return err
		}
		hist := &fd.RecordedHistory{Trace: res.Trace}
		vs := core.CheckSigmaK(f, x, hist, dist.Time(horizon), dist.Time(horizon*3/4))
		return reportEmulation("Figure 5: σ|X| from Σ_X", vs)
	case "fig6":
		pair := dist.NewProcSet(1, 2)
		oracle, err := core.NewSigmaOracle(f, pair, 25, core.SigmaCanonical)
		if err != nil {
			return err
		}
		res, err := sim.Run(sim.Config{
			Pattern: f, History: oracle, Program: core.Fig6Program(),
			Scheduler: sim.NewRandomScheduler(*seed), MaxSteps: horizon,
		})
		if err != nil {
			return err
		}
		hist := &fd.RecordedHistory{Trace: res.Trace}
		vs := fd.CheckAntiOmega(f, hist, dist.Time(horizon), dist.Time(horizon*3/4))
		return reportEmulation("Figure 6: anti-Ω from σ", vs)
	default:
		return fmt.Errorf("unknown emulation %q", which)
	}
}

func cmdMajoritySigma(args []string) error {
	fs := flag.NewFlagSet("majority-sigma", flag.ContinueOnError)
	n := fs.Int("n", 5, "system size")
	seed := fs.Int64("seed", 1, "seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *n < 3 {
		return fmt.Errorf("majority-sigma needs -n ≥ 3 (crashing p_n must leave a correct majority), got %d", *n)
	}
	f, err := newPattern(*n)
	if err != nil {
		return err
	}
	f.CrashAt(dist.ProcID(*n), 40) // a minority crash mid-run
	horizon := int64(2000)
	res, err := sim.Run(sim.Config{
		Pattern: f, History: sim.HistoryFunc(func(dist.ProcID, dist.Time) any { return nil }),
		Program:   fd.MajoritySigmaProgram(f.All()),
		Scheduler: sim.NewRandomScheduler(*seed), MaxSteps: horizon,
	})
	if err != nil {
		return err
	}
	hist := fd.ClampCrashedToPi(&fd.RecordedHistory{Trace: res.Trace, Default: fd.TrustList{Trusted: f.All()}}, f, f.All())
	vs := fd.CheckSigmaS(f, f.All(), hist, dist.Time(horizon), dist.Time(horizon*3/4))
	return reportEmulation("Σ from correct majority (Section 2.2)", vs)
}

func reportEmulation(name string, vs []fd.Violation) error {
	if len(vs) == 0 {
		fmt.Printf("%s: emulated history satisfies the class definition\n", name)
		return nil
	}
	for _, v := range vs {
		fmt.Printf("%s: %s\n", name, v.Error())
	}
	return fmt.Errorf("%s: emulated history invalid", name)
}

func printDecisions(dec map[dist.ProcID]agreement.Value) {
	for p := dist.ProcID(1); p <= dist.MaxProcs; p++ {
		if v, ok := dec[p]; ok {
			fmt.Printf("  p%d decided %d\n", int(p), int64(v))
		}
	}
}
