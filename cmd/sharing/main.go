// Command sharing is the CLI front-end of the reproduction of "Sharing is
// Harder than Agreeing" (Delporte-Gallet, Fauconnier, Guerraoui, PODC 2008).
// It parses flags straight into the packages' configs and composes them;
// every range rule on a config lives in the package that consumes it.
//
// Subcommands ("sharing <subcommand> -h" lists a subcommand's flags):
//
//	lattice         regenerate the Figure 1 hardness lattice
//	setagreement    run Figure 2 (set agreement from σ)
//	kset            run Figure 4 ((n−k)-set agreement from σ₂ₖ)
//	register        run the ABD S-register over Σ_S and check linearizability
//	store           sweep the sharded keyed register store and check every key's history
//	consensus       run the Ω+Σ consensus baseline, a seed sweep under faults
//	counterexample  run a refutation harness (lemma7 | lemma11 | lemma15 | tightness)
//	emulate         run an emulation and validate the emulated history (fig3 | fig5 | fig6)
//	majority-sigma  emulate Σ from a correct majority and validate it
//	hierarchy       derive the failure-detector strictness chains
//	explore         model-check Figure 2 or 4 over every schedule up to -depth
//	sweep           sweep seeds of Figure 2, Figure 4 or consensus per crash scenario
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

// subcommand is one row of the CLI: its name, the one-line summary that
// usage and the package comment print, and the function that parses its
// flags and runs it.
type subcommand struct {
	name, summary string
	run           func(args []string) error
}

var subcommands = []subcommand{
	{"lattice", "regenerate the Figure 1 hardness lattice", cmdLattice},
	{"setagreement", "run Figure 2 (set agreement from σ)", cmdSetAgreement},
	{"kset", "run Figure 4 ((n−k)-set agreement from σ₂ₖ)", cmdKSet},
	{"register", "run the ABD S-register over Σ_S and check linearizability", cmdRegister},
	{"store", "sweep the sharded keyed register store and check every key's history", cmdStore},
	{"consensus", "run the Ω+Σ consensus baseline, a seed sweep under faults", cmdConsensus},
	{"counterexample", "run a refutation harness (lemma7 | lemma11 | lemma15 | tightness)", cmdCounterexample},
	{"emulate", "run an emulation and validate the emulated history (fig3 | fig5 | fig6)", cmdEmulate},
	{"majority-sigma", "emulate Σ from a correct majority and validate it", cmdMajoritySigma},
	{"hierarchy", "derive the failure-detector strictness chains", cmdHierarchy},
	{"explore", "model-check Figure 2 or 4 over every schedule up to -depth", cmdExplore},
	{"sweep", "sweep seeds of Figure 2, Figure 4 or consensus per crash scenario", cmdSweep},
}

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
	if args[0] == "help" || args[0] == "-h" || args[0] == "--help" {
		usage()
		return nil
	}
	for _, c := range subcommands {
		if c.name == args[0] {
			return c.run(args[1:])
		}
	}
	usage()
	return fmt.Errorf("unknown subcommand %q", args[0])
}

func usage() {
	fmt.Fprint(os.Stderr, "usage: sharing <subcommand> [flags]\n\nsubcommands:\n")
	for _, c := range subcommands {
		fmt.Fprintf(os.Stderr, "  %-16s%s\n", c.name, c.summary)
	}
	fmt.Fprintln(os.Stderr, `
"sharing <subcommand> -h" lists a subcommand's flags.

crash lists are comma-separated processes with optional crash times:
"3,4" crashes p3 and p4 at time 0, "3@40,4" crashes p3 at time 40.
-recover entries are "p@t" and pair with a crash strictly before t (the
process rejoins with its volatile state lost). partition entries cut
"i:j" both ways or "i>j" one-way during [t1,t2).`)
}

// printReport prints a lattice or hierarchy report, or returns the error
// that built none.
func printReport[R interface{ Render() string }](rep R, err error) error {
	if err != nil {
		return err
	}
	fmt.Print(rep.Render())
	return nil
}

func cmdHierarchy(args []string) error {
	var cfg hierarchy.Config
	fs := flag.NewFlagSet("hierarchy", flag.ContinueOnError)
	fs.IntVar(&cfg.N, "n", 6, "system size")
	fs.IntVar(&cfg.K, "k", 2, "k (σ₂ₖ side)")
	fs.Int64Var(&cfg.Seed, "seed", 1, "seed")
	fs.Int64Var(&cfg.Runs, "runs", 3, "seeds per reduction edge")
	fs.IntVar(&cfg.Workers, "workers", 0, "sweep workers (0 = GOMAXPROCS)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	return printReport(hierarchy.Build(cfg))
}

func cmdLattice(args []string) error {
	var cfg lattice.Config
	fs := flag.NewFlagSet("lattice", flag.ContinueOnError)
	fs.IntVar(&cfg.N, "n", 6, "system size")
	fs.IntVar(&cfg.RunsPerRelation, "runs", 5, "runs per positive relation")
	fs.Int64Var(&cfg.Seed, "seed", 1, "base seed")
	fs.IntVar(&cfg.Workers, "workers", 0, "sweep workers (0 = GOMAXPROCS)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	return printReport(lattice.Build(cfg))
}

// figTask maps -fig onto its σ task on f. Figure 2 is the k = 1 task, so
// fig2 ignores k.
func figTask(fig string, f *dist.FailurePattern, k int) (core.TaskConfig, error) {
	switch fig {
	case "fig2":
		return core.TaskConfig{Task: core.TaskFig2, Pattern: f}, nil
	case "fig4":
		return core.TaskConfig{Task: core.TaskFig4, Pattern: f, K: k}, nil
	}
	return core.TaskConfig{}, fmt.Errorf("unknown -fig %q", fig)
}

// runSigmaTask runs task once on a seeded random schedule and prints the
// task verdict and the decisions; oracle names the failure detector.
func runSigmaTask(task core.TaskConfig, oracle string, n int, seed int64, crash string) error {
	f, err := crashPattern(n, crash)
	if err != nil {
		return err
	}
	task.Pattern = f
	cfg, err := task.SimConfig()
	if err != nil {
		return err
	}
	cfg.Scheduler = sim.NewRandomScheduler(seed)
	res, err := sim.Run(cfg)
	if err != nil {
		return err
	}
	rep := task.Report(res)
	fmt.Printf("%v on %v (%s active %v): %s\n", task.Task, f, oracle, task.Active(), rep)
	printDecisions(rep.Decisions)
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
	return runSigmaTask(core.TaskConfig{Task: core.TaskFig2}, "σ", *n, *seed, *crash)
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
	return runSigmaTask(core.TaskConfig{Task: core.TaskFig4, K: *k}, "σ₂ₖ", *n, *seed, *crash)
}

// cmdExplore bounded-model-checks a figure: every interleaving and message
// reordering up to -depth is enumerated on a -workers pool and checked
// against the task's safety properties.
func cmdExplore(args []string) error {
	cfg := sim.ExploreConfig{TimeCap: 1}
	fs := flag.NewFlagSet("explore", flag.ContinueOnError)
	fig := fs.String("fig", "fig2", "algorithm to model-check: fig2|fig4")
	n := fs.Int("n", 3, "system size")
	k := fs.Int("k", 1, "k (fig4: active set has 2k processes)")
	fs.IntVar(&cfg.MaxDepth, "depth", 12, "schedule-length bound")
	fs.IntVar(&cfg.MaxStates, "states", 1<<20, "visited-state soft cap")
	fs.IntVar(&cfg.Workers, "workers", 0, "worker pool size (0 = GOMAXPROCS)")
	crash := fs.String("crash", "", "crash list; exploration runs under TimeCap 1, so only time-0 crashes are admissible")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// sim.Explore reads 0 as its default, so an explicit bound must be ≥ 1.
	if cfg.MaxDepth < 1 || cfg.MaxStates < 1 {
		return fmt.Errorf("explore needs -depth ≥ 1 and -states ≥ 1, got -depth %d -states %d", cfg.MaxDepth, cfg.MaxStates)
	}
	f, err := crashPattern(*n, *crash)
	if err != nil {
		return err
	}
	task, err := figTask(*fig, f, *k)
	if err != nil {
		return err
	}
	task.Stab = 1
	sc, err := task.SimConfig()
	if err != nil {
		return err
	}
	cfg.Pattern, cfg.History, cfg.Program, cfg.Check = f, sc.History, sc.Program, task.Safety()
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
		return fmt.Errorf("%s violates %d-set agreement at depth %d: %s", *fig, task.SetK(), res.ViolationDepth, res.Violation)
	}
	fmt.Printf("no reachable violation of %d-set agreement safety within depth %d\n", task.SetK(), cfg.MaxDepth)
	return nil
}

// cmdSweep runs -seeds seeded runs per crash scenario on the concurrent
// sweep engine and prints aggregate statistics per scenario.
func cmdSweep(args []string) error {
	var cfg sweep.Config
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fig := fs.String("fig", "fig2", "workload: fig2|fig4|consensus")
	n := fs.Int("n", 5, "system size")
	k := fs.Int("k", 2, "k (fig4: active set has 2k processes)")
	fs.Int64Var(&cfg.Seeds, "seeds", 200, "seeds per scenario")
	fs.Int64Var(&cfg.SeedStart, "seed", 0, "first seed")
	fs.IntVar(&cfg.Workers, "workers", 0, "worker pool size (0 = GOMAXPROCS)")
	scenarios := fs.String("scenarios", "", `semicolon-separated crash scenarios (empty entry = failure-free); default ";N;N@40" (failure-free, pN initially dead, pN crashing mid-run), failure-free only at N = 1`)
	if err := fs.Parse(args); err != nil {
		return err
	}
	specs := []string{""}
	if *n > 1 {
		specs = append(specs, fmt.Sprintf("%d", *n), fmt.Sprintf("%d@40", *n))
	}
	if *scenarios != "" {
		specs = strings.Split(*scenarios, ";")
	}
	for _, spec := range specs {
		f, err := newPattern(*n)
		if err != nil {
			return err
		}
		if err := parseCrash(f, "crash", spec); err != nil {
			return fmt.Errorf("-scenarios entry %q: %w", spec, err)
		}
		start := time.Now()
		taskK := 1
		var res *sweep.Result
		if *fig == "consensus" {
			res, err = consensus.Sweep(consensus.SweepConfig{
				Pattern: f, Proposals: agreement.DistinctProposals(*n),
				SeedStart: cfg.SeedStart, Seeds: cfg.Seeds, Workers: cfg.Workers,
			})
		} else {
			var (
				task core.TaskConfig
				sc   sim.Config
			)
			if task, err = figTask(*fig, f, *k); err != nil {
				return err
			}
			if sc, err = task.SimConfig(); err != nil {
				return err
			}
			taskK = task.SetK()
			cfg.Sim, cfg.Check = func() sim.Config { return sc }, task.Check
			res, err = sweep.Run(cfg)
		}
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
	var (
		sc register.StoreSweepConfig
		wl register.StoreWorkloadConfig
	)
	fs := flag.NewFlagSet("store", flag.ContinueOnError)
	fs.IntVar(&wl.N, "n", 5, "system size")
	fs.IntVar(&wl.Keys, "keys", 16, "number of keyed registers")
	fs.IntVar(&wl.Shards, "shards", 1, "replica-group shards the key space is partitioned across")
	clients := fs.Int("clients", 3, "store members: S = {p1..pClients}")
	fs.IntVar(&sc.Store.Window, "window", 4, "client pipelining window per shard (outstanding ops on distinct keys)")
	fs.IntVar(&wl.OpsPerClient, "ops", 16, "scripted ops per client")
	fs.Int64Var(&sc.Seeds, "seeds", 20, "scheduler seeds to sweep")
	fs.Int64Var(&sc.SeedStart, "seed", 0, "first scheduler seed")
	fs.Int64Var(&wl.Seed, "wseed", 1, "workload generator seed")
	fs.IntVar(&sc.Workers, "workers", 0, "sweep workers (0 = GOMAXPROCS)")
	crash := fs.String("crash", "", "crash list, e.g. \"5,4@40\"")
	crashShard := fs.String("crashshard", "", "crash a whole shard's replica group, e.g. \"1\" or \"1@40\"")
	fs.Float64Var(&wl.Skew, "skew", 1.2, "zipf skew within each shard's keys (0 = uniform)")
	fs.Float64Var(&wl.WriteRatio, "write", register.DefaultWriteRatio, "write ratio (0 = read-only)")
	fs.BoolVar(&sc.Store.Piggyback, "piggyback", false, "fold all same-destination traffic of a step (requests of every shard plus pending replies) into one frame per (src,dst)")
	fs.BoolVar(&sc.Store.AdaptiveWindow, "adaptive", false, "replace the fixed per-shard window with the AIMD controller (grows while ops complete, halves on shard stall)")
	fs.IntVar(&sc.Store.MaxWindow, "maxwindow", 0, "adaptive growth cap (0 = 4×window; requires -adaptive)")
	fs.IntVar(&sc.Store.StallSteps, "stall", 0, "client steps a shard may stall before its window halves (0 = default; requires -adaptive)")
	faults := bindFaultFlags(fs)
	fs.BoolVar(&sc.Store.Retransmit, "retransmit", false, "arm per-op retransmission with exponential backoff (required under -loss / -partition)")
	fs.IntVar(&sc.Store.RTO, "rto", 0, "initial retransmission timeout in client steps (0 = default; requires -retransmit)")
	fs.IntVar(&sc.Store.MaxRTO, "maxrto", 0, "retransmission backoff cap in client steps (0 = 8×rto; requires -retransmit)")
	fs.BoolVar(&sc.Store.OpenLoop, "openloop", false, "open-loop clients: ops become eligible on a jittered seeded arrival schedule instead of on window refill, and latency is measured from arrival (queueing delay included)")
	rate := fs.Float64("rate", 0, "open-loop offered load in ops per client step; the mean inter-arrival gap is round(1/rate) (0 = back-to-back arrivals; requires -openloop)")
	fs.BoolVar(&sc.Store.FastReads, "fastread", false, "one-phase fast reads: elide the write-back round when the phase-1 quorum is unanimous or its max timestamp is already confirmed at a quorum (composes with every other flag; off = wire-identical to two-phase)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	f, err := crashPattern(wl.N, *crash)
	if err != nil {
		return err
	}
	if wl.S, err = clientSet(wl.N, *clients); err != nil {
		return err
	}
	sc.Pattern, sc.S = f, wl.S
	sc.Store.Keys, sc.Store.Shards = wl.Keys, wl.Shards
	if sc.Store.OpenLoop {
		sc.Store.ArrivalJitter = true
		sc.Store.ArrivalSeed = wl.Seed // decorrelate arrivals from the scheduler seeds
	}
	shardMap, err := sc.Store.ShardMap(wl.N) // validates the whole store config
	if err != nil {
		return err
	}
	if err := parseShardCrash(f, shardMap, *crashShard); err != nil {
		return err
	}
	sc.Faults, err = faults.apply(f, func(spec string) ([]dist.Partition, error) { return parsePartition(shardMap, spec) })
	if err != nil {
		return err
	}
	if sc.Scripts, err = register.GenerateStoreWorkload(wl); err != nil {
		return err
	}
	// The arrival gap is bounded by the run's step budget, which depends on
	// the scripts and the partitions; it does not change the budget.
	if sc.Store.ArrivalGap, err = openLoopGap(sc.Store.OpenLoop, *rate, sc.EffectiveMaxSteps()); err != nil {
		return err
	}
	start := time.Now()
	res, err := register.StoreSweep(sc)
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
	masks := register.StoreReach(shardMap, sc.Faults, f.Correct(), sc.S,
		dist.Time(sc.EffectiveMaxSteps()))
	opsPerRun := int64(0)
	for _, p := range sc.S.Intersect(f.Correct()).Members() {
		reach := avail
		if masks != nil {
			reach = reach.Intersect(masks[p])
		}
		for _, op := range sc.Scripts[p-1] {
			if reach.Has(shardMap.Shard(op.Key)) {
				opsPerRun++
			}
		}
	}
	windowDesc := fmt.Sprintf("window=%d", sc.Store.Window)
	if sc.Store.AdaptiveWindow {
		windowDesc = fmt.Sprintf("window=%d..%d(adaptive)", sc.Store.Window, sc.Store.EffectiveMaxWindow())
	}
	fmt.Printf("store on %v, S=%v, keys=%d shards=%d %s piggyback=%v: %d runs × %d scripted ops (%d guaranteed at correct clients)\n",
		f, sc.S, wl.Keys, shardMap.Shards(), windowDesc, sc.Store.Piggyback, res.Runs, register.TotalKeyedOps(sc.Scripts), opsPerRun)
	if sc.Store.OpenLoop {
		fmt.Printf("  load: openloop gap=%d(jittered)\n", sc.Store.EffectiveArrivalGap())
	}
	if sc.Faults != nil {
		fmt.Printf("  faults: loss=%.3g dup=%.3g maxdelay=%d seed=%d retransmit=%v",
			sc.Faults.Loss, sc.Faults.Dup, int64(sc.Faults.MaxDelay), sc.Faults.Seed, sc.Store.Retransmit)
		for _, pt := range sc.Faults.Partitions {
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
		for _, p := range sc.S.Intersect(f.Correct()).Members() {
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
	if sc.Store.FastReads {
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
	var sc consensus.SweepConfig
	fs := flag.NewFlagSet("consensus", flag.ContinueOnError)
	n := fs.Int("n", 5, "system size")
	fs.Int64Var(&sc.SeedStart, "seed", 1, "scheduler seed (first seed in fault mode)")
	crash := fs.String("crash", "", "crash list, e.g. \"5\" or \"4@60\"")
	fs.Int64Var(&sc.Seeds, "seeds", 20, "seeds per sweep (fault mode only)")
	fs.IntVar(&sc.Workers, "workers", 0, "sweep workers in fault mode (0 = GOMAXPROCS)")
	faults := bindFaultFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	f, err := crashPattern(*n, *crash)
	if err != nil {
		return err
	}
	sc.Faults, err = faults.apply(f, func(spec string) ([]dist.Partition, error) { return parseProcPartition(*n, spec) })
	if err != nil {
		return err
	}
	sc.Pattern, sc.Proposals = f, agreement.DistinctProposals(*n)
	if sc.Faults == nil && !f.HasRecoveries() {
		// The single run has no seed range, pool or fault plan to apply
		// these to.
		var unused error
		fs.Visit(func(fl *flag.Flag) {
			if unused == nil && (fl.Name == "seeds" || fl.Name == "workers" || fl.Name == "faultseed") {
				unused = fmt.Errorf("-%s applies only in fault mode (set -recover, -loss, -dup, -delay or -partition)", fl.Name)
			}
		})
		if unused != nil {
			return unused
		}
		cfg, err := sc.SimConfig()
		if err != nil {
			return err
		}
		cfg.Scheduler = sim.NewRandomScheduler(sc.SeedStart)
		res, err := sim.Run(cfg)
		if err != nil {
			return err
		}
		rep := agreement.Check(f, 1, sc.Proposals, res)
		fmt.Printf("Ω+Σ consensus on %v: %s\n", f, rep)
		printDecisions(rep.Decisions)
		return nil
	}
	start := time.Now()
	res, err := consensus.Sweep(sc)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	fmt.Printf("Ω+Σ consensus under faults on %v: %s\n", f, res)
	if sc.Faults != nil {
		fmt.Printf("  faults: loss=%.3g dup=%.3g maxdelay=%d seed=%d",
			sc.Faults.Loss, sc.Faults.Dup, int64(sc.Faults.MaxDelay), sc.Faults.Seed)
		for _, pt := range sc.Faults.Partitions {
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
	var (
		cert *separation.Certificate
		err  error
	)
	switch which {
	case "lemma7":
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
	const horizon = 500
	end, from := dist.Time(horizon), dist.Time(horizon*3/4)
	var (
		name    string
		history sim.History
		program sim.Program
		check   func(sim.History) []fd.Violation
	)
	switch which {
	case "fig3":
		if *n < 2 {
			return fmt.Errorf("fig3 demo needs n ≥ 2 for the pair {p1,p2}, got %d", *n)
		}
		pair := dist.NewProcSet(1, 2)
		name, history, program = "Figure 3: σ from Σ{p,q}", fd.NewSigmaS(f, pair, 20), core.Fig3Program(pair)
		check = func(h sim.History) []fd.Violation { return core.CheckSigma(f, pair, h, end, from) }
	case "fig5":
		if *n < 4 {
			return fmt.Errorf("fig5 demo needs n ≥ 4")
		}
		x := dist.RangeSet(1, 4)
		name, history, program = "Figure 5: σ|X| from Σ_X", fd.NewSigmaS(f, x, 20), core.Fig5Program(x)
		check = func(h sim.History) []fd.Violation { return core.CheckSigmaK(f, x, h, end, from) }
	case "fig6":
		if history, err = core.NewSigmaOracle(f, dist.NewProcSet(1, 2), 25, core.SigmaCanonical); err != nil {
			return err
		}
		name, program = "Figure 6: anti-Ω from σ", core.Fig6Program()
		check = func(h sim.History) []fd.Violation { return fd.CheckAntiOmega(f, h, end, from) }
	default:
		return fmt.Errorf("unknown emulation %q", which)
	}
	res, err := sim.Run(sim.Config{
		Pattern: f, History: history, Program: program,
		Scheduler: sim.NewRandomScheduler(*seed), MaxSteps: horizon,
	})
	if err != nil {
		return err
	}
	return reportEmulation(name, check(&fd.RecordedHistory{Trace: res.Trace}))
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
