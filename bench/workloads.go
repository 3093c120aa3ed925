package main

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/agreement"
	"repro/internal/consensus"
	"repro/internal/dist"
	"repro/internal/fd"
	"repro/internal/register"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// reps is the number of equal blocks one pass is split into.
const reps = 7

// workload is one set of inputs the benchmark runs. A pass sweeps scripts
// generated workloads, perScript scheduler seeds each: every generated
// workload is one call into the public sweep entry point. Many small
// workloads per pass keep the schedule-determined metrics from hanging on
// one draw of the workload generator.
type workload struct {
	name      string
	load      string // who offers the load, for the report
	scripts   int64  // a multiple of reps
	perScript int64
	build     func(genSeed int64) (instance, error)
}

// The workloads, chosen so that each layer is stressed by one of them and
// left alone by another (README.md gives the reasons in full):
//   - store-steady is the failure-free common path (runner fast path,
//     store automaton, light checker, queueing in the open-loop tail);
//   - store-contended puts the checker's 60-op cap on every key and runs
//     fast reads side by side with their write-back fallbacks;
//   - store-faults-n128 is where per-step costs that grow with n dominate
//     (scheduler bypass scan, stop-condition scan, inbox scans under
//     faults, retransmission);
//   - consensus-faults is the agreeing half: no register, trace or
//     checker, so it is the control that store-layer changes leave flat.
//     It has no workload generator, so its blocks share one input.
var workloads = []workload{
	{
		name: "store-steady", load: "open loop, 3 clients, mean arrival gap 4 client steps, jittered",
		scripts: 560, perScript: 10, build: storeSteady,
	},
	{
		name: "store-contended", load: "closed loop, 8 clients, window 4",
		scripts: 280, perScript: 5, build: storeContended,
	},
	{
		name: "store-faults-n128", load: "closed loop, 16 clients, adaptive window 2..6",
		scripts: 392, perScript: 1, build: storeFaultsN128,
	},
	{
		name: "consensus-faults", load: "one proposal per process, 6 processes",
		scripts: 7, perScript: 8_000, build: consensusFaults,
	},
}

// seeds is the number of scheduler seeds one pass runs.
func (w workload) seeds() int64 { return w.scripts * w.perScript }

// sub is one call into the public sweep: a generated workload and the
// scheduler seeds [lo, lo+n) it runs.
type sub struct {
	in    instance
	lo, n int64
}

// plan builds generated workloads [first, first+count) of the pass for
// -seed seed. The seed shifts both the generator seeds and the scheduler
// seed range to ranges no other -seed uses.
func (w workload) plan(seed, first, count int64) ([]sub, error) {
	subs := make([]sub, count)
	for i := range subs {
		j := first + int64(i)
		in, err := w.build(seed*w.scripts + j)
		if err != nil {
			return nil, err
		}
		subs[i] = sub{in: in, lo: seed*w.seeds() + j*w.perScript, n: w.perScript}
	}
	return subs, nil
}

// workloadByName returns the named workload.
func workloadByName(name string) (workload, error) {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s, or all)", name, strings.Join(names, ", "))
}

// instance is one generated workload: its inputs, the public sweep entry
// point users run on them, and the public pieces the traced pass rebuilds
// the same runs from.
type instance interface {
	// sweep runs the user entry point over seeds [lo, lo+n) on one worker.
	sweep(lo, n int64) (*sweep.Result, error)
	// ops counts the verified operations in an aggregate: completed store
	// operations, or decisions at the target processes.
	ops(res *sweep.Result) int64
	// latency is the histogram the lat_* metrics read: per-op client steps
	// for the store, per-run steps until every target decided for
	// consensus.
	latency(res *sweep.Result) *sweep.Hist
	// traced reports whether the sweep records a trace (the store needs it
	// for the linearizability check; consensus runs untraced).
	traced() bool
	// config returns a fresh runner config for the system the sweep runs,
	// with trace recording as asked and no stop condition.
	config(traced bool) (sim.Config, error)
	// done is the sweep's stop condition, rebuilt from public calls. It
	// sees through automaton wrappers.
	done(sn *sim.Snapshot) bool
	// verify applies the sweep's per-run check to a run whose automata are
	// unwrapped, and times its stages.
	verify(res *sim.Result) (verdict, error)
	// collect folds a verified run into agg the way the sweep aggregates,
	// and adds the run's protocol counters to c.
	collect(res *sim.Result, agg *sweep.Result, c *protoCounts)
}

// verdict is what verifying one run cost.
type verdict struct {
	extractNs, checkNs int64
	maxOpsPerKey       int
}

// protoCounts are the store automaton's own counters, summed over runs.
type protoCounts struct {
	fastReads, fallbacks, retransmits int64
	replicaBytes                      int64 // summed over nodes and runs
}

// storeSpec is a store workload before its inputs are generated.
type storeSpec struct {
	pattern      *dist.FailurePattern
	clients      int
	store        register.StoreConfig
	opsPerClient int
	writeRatio   float64
	skew         float64
	genSeed      int64
	// faults builds the network adversary once the shard map is known.
	faults func(m *register.ShardMap) *sim.FaultPlan
}

func storeSteady(genSeed int64) (instance, error) {
	return newStore(storeSpec{
		pattern: dist.NewFailurePattern(5),
		clients: 3,
		store: register.StoreConfig{
			Keys: 48, Shards: 4, Window: 8, Piggyback: true,
			OpenLoop: true, ArrivalGap: 4, ArrivalJitter: true,
		},
		opsPerClient: 64, writeRatio: 0.5, skew: 1.2, genSeed: genSeed,
	})
}

func storeContended(genSeed int64) (instance, error) {
	return newStore(storeSpec{
		pattern: dist.NewFailurePattern(8),
		clients: 8,
		store: register.StoreConfig{
			Keys: 4, Window: 4, Piggyback: true, FastReads: true,
		},
		// 8 clients × 30 ops on 4 keys: every key gets the generator's
		// MaxOpsPerKey = 60 ops, the checker's cap.
		opsPerClient: 30, writeRatio: 0.3, genSeed: genSeed,
	})
}

func storeFaultsN128(genSeed int64) (instance, error) {
	f := dist.NewFailurePattern(128)
	f.CrashAt(40, 50)
	f.RecoverAt(40, 200)
	return newStore(storeSpec{
		pattern: f,
		clients: 16,
		store: register.StoreConfig{
			Keys: 64, Shards: 16, Window: 2,
			AdaptiveWindow: true, MaxWindow: 6, StallSteps: 8,
			Retransmit: true, RTO: 24, MaxRTO: 96,
			FastReads: true,
		},
		opsPerClient: 4, writeRatio: 0.5, skew: 1.2, genSeed: genSeed,
		faults: func(m *register.ShardMap) *sim.FaultPlan {
			return &sim.FaultPlan{
				Seed: 7, Loss: 0.03, Dup: 0.03, MaxDelay: 3,
				Partitions: []dist.Partition{{A: m.Group(0), B: m.Group(1), From: 60, Until: 300}},
			}
		},
	})
}

func consensusFaults(int64) (instance, error) {
	f := dist.NewFailurePattern(6)
	f.CrashAt(5, 40)
	f.RecoverAt(5, 200)
	return newConsensus(consensus.SweepConfig{
		Pattern:   f,
		Proposals: agreement.DistinctProposals(6),
		Faults: &sim.FaultPlan{
			Seed: 7, Loss: 0.05, Dup: 0.05, MaxDelay: 2,
			Partitions: []dist.Partition{{
				A: dist.NewProcSet(1, 3), B: dist.NewProcSet(2), From: 30, Until: 150, OneWay: true,
			}},
		},
	}), nil
}

// storeInst is a generated store workload.
type storeInst struct {
	cfg      register.StoreSweepConfig
	stab     dist.Time
	maxSteps int64
	clients  dist.ProcSet // correct members of S
	avail    register.ShardSet
	masks    []register.ShardSet // per-client reachable shards; nil = all
}

func newStore(sp storeSpec) (*storeInst, error) {
	n := sp.pattern.N()
	s := dist.RangeSet(1, dist.ProcID(sp.clients))
	store := sp.store
	if store.OpenLoop {
		store.ArrivalSeed = sp.genSeed // as the CLI does: arrivals follow the workload seed
	}
	m, err := store.ShardMap(n)
	if err != nil {
		return nil, err
	}
	scripts, err := register.GenerateStoreWorkload(register.StoreWorkloadConfig{
		N: n, S: s, Keys: store.Keys, Shards: store.Shards, OpsPerClient: sp.opsPerClient,
		WriteRatio: sp.writeRatio, Skew: sp.skew, Seed: sp.genSeed,
	})
	if err != nil {
		return nil, err
	}
	var faults *sim.FaultPlan
	if sp.faults != nil {
		faults = sp.faults(m)
	}
	in := &storeInst{
		cfg: register.StoreSweepConfig{
			Pattern: sp.pattern, S: s, Store: store, Scripts: scripts, Faults: faults, Workers: 1,
		},
		stab: 20, // StoreSweep's default Σ_S stabilization time
	}
	in.maxSteps = in.cfg.EffectiveMaxSteps()
	correct := sp.pattern.Correct()
	in.clients = s.Intersect(correct)
	in.avail = m.Available(correct)
	in.masks = register.StoreReach(m, faults, correct, in.clients, dist.Time(in.maxSteps))
	return in, nil
}

func (in *storeInst) sweep(lo, n int64) (*sweep.Result, error) {
	cfg := in.cfg
	cfg.SeedStart, cfg.Seeds = lo, n
	return register.StoreSweep(cfg)
}

func (in *storeInst) ops(res *sweep.Result) int64           { return res.Lat.Count }
func (in *storeInst) latency(res *sweep.Result) *sweep.Hist { return &res.Lat }
func (in *storeInst) traced() bool                          { return true }

func (in *storeInst) config(traced bool) (sim.Config, error) {
	prog, err := register.StoreProgram(in.cfg.Pattern.N(), in.cfg.S, in.cfg.Store, in.cfg.Scripts)
	if err != nil {
		return sim.Config{}, err
	}
	return sim.Config{
		Pattern:      in.cfg.Pattern,
		History:      fd.NewSigmaS(in.cfg.Pattern, in.cfg.S, in.stab),
		Program:      prog,
		MaxSteps:     in.maxSteps,
		Faults:       in.cfg.Faults,
		DisableTrace: !traced,
	}, nil
}

// done is StoreSweep's stop condition: every correct client finished its
// work on the shards it can reach.
func (in *storeInst) done(sn *sim.Snapshot) bool {
	for set := in.clients; !set.IsEmpty(); {
		p := set.Min()
		set = set.Remove(p)
		node, ok := inner(sn.Automaton(p)).(*register.StoreNode)
		if !ok || !node.DoneOn(in.reach(p)) {
			return false
		}
	}
	return true
}

// reach is the set of shards client p must finish its work on.
func (in *storeInst) reach(p dist.ProcID) register.ShardSet {
	if in.masks == nil {
		return in.avail
	}
	return in.avail.Intersect(in.masks[p])
}

// verify is StoreSweep's per-run check: completion at every correct client,
// then per-key linearizability of the recorded history.
func (in *storeInst) verify(res *sim.Result) (verdict, error) {
	var v verdict
	for set := in.clients; !set.IsEmpty(); {
		p := set.Min()
		set = set.Remove(p)
		node, ok := res.Automata[p-1].(*register.StoreNode)
		if !ok || !node.DoneOn(in.reach(p)) {
			return v, fmt.Errorf("client p%d did not finish its reachable work (run ended: %s)", int(p), res.Reason)
		}
	}
	if res.Trace == nil {
		return v, fmt.Errorf("store verification needs the run trace")
	}
	t0 := time.Now()
	byKey := register.ExtractKeyedOps(res.Trace)
	t1 := time.Now()
	err := register.CheckKeyedLinearizable(byKey, 0)
	t2 := time.Now()
	v.extractNs, v.checkNs = t1.Sub(t0).Nanoseconds(), t2.Sub(t1).Nanoseconds()
	for _, ops := range byKey {
		v.maxOpsPerKey = max(v.maxOpsPerKey, len(ops))
	}
	return v, err
}

func (in *storeInst) collect(res *sim.Result, agg *sweep.Result, c *protoCounts) {
	observeRun(res, agg)
	var fast, fall int64
	for _, a := range res.Automata {
		node, ok := a.(*register.StoreNode)
		if !ok {
			continue
		}
		agg.Lat.Merge(node.LatencyHist())
		agg.LatClean.Merge(node.CleanLatencyHist())
		agg.LatFaulted.Merge(node.FaultedLatencyHist())
		fast += node.FastReads()
		fall += node.ReadFallbacks()
		c.retransmits += node.Retransmits()
		c.replicaBytes += int64(node.ReplicaStateBytes())
	}
	agg.FastReads.Observe(fast)
	agg.Fallbacks.Observe(fall)
	c.fastReads += fast
	c.fallbacks += fall
}

// observeRun adds one passing run to the aggregate's per-run histograms,
// as the sweep engine does.
func observeRun(res *sim.Result, agg *sweep.Result) {
	agg.Runs++
	agg.Steps.Observe(res.Steps)
	agg.Msgs.Observe(res.MessagesSent)
	agg.Dropped.Observe(res.MessagesDropped)
	agg.Duplicated.Observe(res.MessagesDuplicated)
}

// consInst is the consensus workload.
type consInst struct {
	cfg      consensus.SweepConfig
	target   dist.ProcSet // processes that must decide: correct plus recovering
	maxSteps int64
}

func newConsensus(cfg consensus.SweepConfig) *consInst {
	cfg.Workers = 1
	in := &consInst{
		cfg:      cfg,
		target:   cfg.Pattern.Correct().Union(cfg.Pattern.Recovering()),
		maxSteps: 200_000, // consensus.Sweep's default horizon
	}
	for _, pt := range cfg.Faults.Partitions {
		in.maxSteps = max(in.maxSteps, 2*int64(pt.Until))
	}
	return in
}

func (in *consInst) sweep(lo, n int64) (*sweep.Result, error) {
	cfg := in.cfg
	cfg.SeedStart, cfg.Seeds = lo, n
	return consensus.Sweep(cfg)
}

func (in *consInst) ops(res *sweep.Result) int64 {
	return (res.Runs - res.Failures) * int64(in.target.Len())
}

func (in *consInst) latency(res *sweep.Result) *sweep.Hist { return &res.Steps }
func (in *consInst) traced() bool                          { return false }

func (in *consInst) config(traced bool) (sim.Config, error) {
	return sim.Config{
		Pattern:      in.cfg.Pattern,
		History:      consensus.NewOracle(in.cfg.Pattern, 25), // consensus.Sweep's default stabilization
		Program:      consensus.Program(in.cfg.Proposals),
		MaxSteps:     in.maxSteps,
		Faults:       in.cfg.Faults,
		DisableTrace: !traced,
	}, nil
}

func (in *consInst) done(sn *sim.Snapshot) bool {
	for set := in.target; !set.IsEmpty(); {
		p := set.Min()
		set = set.Remove(p)
		if _, ok := sn.Decided(p); !ok {
			return false
		}
	}
	return true
}

// verify is consensus.Sweep's per-run check: validity, uniform agreement
// and termination at every target process.
func (in *consInst) verify(res *sim.Result) (verdict, error) {
	t0 := time.Now()
	rep := agreement.Check(in.cfg.Pattern, 1, in.cfg.Proposals, res)
	var missing []string
	in.cfg.Pattern.Recovering().ForEach(func(p dist.ProcID) {
		if _, ok := res.Decisions[p]; !ok {
			missing = append(missing, fmt.Sprintf("p%d", int(p)))
		}
	})
	v := verdict{checkNs: time.Since(t0).Nanoseconds()}
	if len(rep.Violations) > 0 {
		return v, fmt.Errorf("%s", strings.Join(rep.Violations, "; "))
	}
	if len(missing) > 0 {
		return v, fmt.Errorf("recovered process(es) %s never relearned the decision (run ended: %s)", strings.Join(missing, ","), res.Reason)
	}
	return v, nil
}

func (in *consInst) collect(res *sim.Result, agg *sweep.Result, _ *protoCounts) {
	observeRun(res, agg)
}
