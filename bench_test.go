// Package repro benchmarks every experiment of the reproduction: one
// benchmark per figure/claim of the paper (see DESIGN.md for the experiment
// index E1–E14 and the recorded baselines in CHANGES.md). Besides ns/op,
// each benchmark reports the simulator work it performed (steps/op,
// msgs/op), which is the meaningful cost measure for an interleaving-level
// simulation, and allocs/op, which is the hot-path regression tripwire: the
// runner itself is (near-)zero-allocation per step, so allocs/op tracks the
// per-run setup plus the automata's own allocations only.
//
// Simulation benchmarks construct one sim.Runner per configuration and
// Reset(seed) it per iteration, which is the intended sweep API: inboxes,
// step contexts and the scheduler are reused across all iterations.
package repro

import (
	"fmt"
	"runtime"
	"strconv"
	"testing"

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

func reportRun(b *testing.B, steps, msgs int64) {
	b.Helper()
	b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
	b.ReportMetric(float64(msgs)/float64(b.N), "msgs/op")
}

// newRunner fails the benchmark on configuration errors.
func newRunner(b *testing.B, cfg sim.Config) *sim.Runner {
	b.Helper()
	r, err := sim.NewRunner(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// benchTask runs task once per iteration on one runner driven by sched,
// checks every run against the task and reports the schedule's cost.
func benchTask(b *testing.B, task core.TaskConfig, sched sim.Scheduler) {
	b.Helper()
	cfg, err := task.SimConfig()
	if err != nil {
		b.Fatal(err)
	}
	cfg.Scheduler = sched
	r := newRunner(b, cfg)
	var steps, msgs int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := r.Reset(int64(i)).Run()
		if err != nil {
			b.Fatal(err)
		}
		if err := task.Check(int64(i), res); err != nil {
			b.Fatal(err)
		}
		steps += res.Steps
		msgs += res.MessagesSent
	}
	reportRun(b, steps, msgs)
}

// BenchmarkFig2SetAgreement regenerates experiment E1: Figure 2 (set
// agreement from σ) across system sizes.
func BenchmarkFig2SetAgreement(b *testing.B) {
	for _, n := range []int{3, 5, 8, 12, 16} {
		b.Run(benchName("n", n), func(b *testing.B) {
			task := core.TaskConfig{Task: core.TaskFig2, Pattern: dist.NewFailurePattern(n)}
			benchTask(b, task, sim.NewRandomScheduler(0))
		})
	}
}

// BenchmarkFig3Emulation regenerates experiment E2: σ from Σ{p,q}.
func BenchmarkFig3Emulation(b *testing.B) {
	const n = 5
	f := dist.CrashPattern(n, 4)
	pair := dist.NewProcSet(1, 2)
	r := newRunner(b, sim.Config{
		Pattern: f, History: fd.NewSigmaS(f, pair, 20), Program: core.Fig3Program(pair),
		Scheduler: sim.NewRandomScheduler(0), MaxSteps: 400, DisableTrace: true,
	})
	var steps, msgs int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := r.Reset(int64(i)).Run()
		if err != nil {
			b.Fatal(err)
		}
		steps += res.Steps
		msgs += res.MessagesSent
	}
	reportRun(b, steps, msgs)
}

// BenchmarkFig4KSetAgreement regenerates experiment E4: Figure 4 across the
// (n, k) grid.
func BenchmarkFig4KSetAgreement(b *testing.B) {
	for _, tc := range []struct{ n, k int }{{6, 1}, {6, 3}, {10, 2}, {10, 5}, {16, 4}} {
		b.Run(benchName("n", tc.n)+benchName("_k", tc.k), func(b *testing.B) {
			task := core.TaskConfig{Task: core.TaskFig4, Pattern: dist.NewFailurePattern(tc.n), K: tc.k}
			benchTask(b, task, sim.NewRandomScheduler(0))
		})
	}
}

// BenchmarkFig5Emulation regenerates experiment E5: σ|X| from Σ_X.
func BenchmarkFig5Emulation(b *testing.B) {
	const n = 8
	f := dist.CrashPattern(n, 7)
	x := dist.RangeSet(1, 4)
	r := newRunner(b, sim.Config{
		Pattern: f, History: fd.NewSigmaS(f, x, 20), Program: core.Fig5Program(x),
		Scheduler: sim.NewRandomScheduler(0), MaxSteps: 400, DisableTrace: true,
	})
	var steps, msgs int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := r.Reset(int64(i)).Run()
		if err != nil {
			b.Fatal(err)
		}
		steps += res.Steps
		msgs += res.MessagesSent
	}
	reportRun(b, steps, msgs)
}

// BenchmarkFig6AntiOmega regenerates experiment E8: anti-Ω from σ.
func BenchmarkFig6AntiOmega(b *testing.B) {
	const n = 6
	f := dist.CrashPattern(n, 5)
	pair := dist.NewProcSet(1, 2)
	oracle, err := core.NewSigmaOracle(f, pair, 25, core.SigmaCanonical)
	if err != nil {
		b.Fatal(err)
	}
	r := newRunner(b, sim.Config{
		Pattern: f, History: oracle, Program: core.Fig6Program(),
		Scheduler: sim.NewRandomScheduler(0), MaxSteps: 800, DisableTrace: true,
	})
	var steps, msgs int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := r.Reset(int64(i)).Run()
		if err != nil {
			b.Fatal(err)
		}
		steps += res.Steps
		msgs += res.MessagesSent
	}
	reportRun(b, steps, msgs)
}

// BenchmarkLemma7Refutation regenerates experiment E3.
func BenchmarkLemma7Refutation(b *testing.B) {
	pair := dist.NewProcSet(1, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cert, err := separation.Lemma7(separation.Lemma7Config{
			N: 4, Candidate: separation.HeartbeatCandidate(pair, 8), Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if cert.Property != "intersection" {
			b.Fatalf("unexpected certificate: %s", cert)
		}
	}
}

// BenchmarkLemma11Refutation regenerates experiment E6.
func BenchmarkLemma11Refutation(b *testing.B) {
	x := dist.RangeSet(1, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cert, err := separation.Lemma11(separation.Lemma11Config{
			N: 6, K: 2, Candidate: separation.HeartbeatSetCandidate(x, 8), Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if cert.Property == "" {
			b.Fatal("missing certificate")
		}
	}
}

// BenchmarkLemma15Refutation regenerates experiment E9.
func BenchmarkLemma15Refutation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cert, err := separation.Lemma15(separation.Lemma15Config{
			N: 5, Candidate: separation.EagerMinCandidate(6),
		})
		if err != nil {
			b.Fatal(err)
		}
		if cert.Property != "agreement" {
			b.Fatalf("unexpected certificate: %s", cert)
		}
	}
}

// BenchmarkTightness regenerates experiment E7.
func BenchmarkTightness(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cert, err := separation.Tightness(separation.TightnessConfig{N: 8, K: 3, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if cert.Property != "agreement" {
			b.Fatalf("unexpected certificate: %s", cert)
		}
	}
}

// BenchmarkFigure1Lattice regenerates experiment E10: the whole lattice.
func BenchmarkFigure1Lattice(b *testing.B) {
	for _, n := range []int{4, 6, 8} {
		b.Run(benchName("n", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := lattice.Build(lattice.Config{N: n, RunsPerRelation: 2, Seed: int64(i)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMajoritySigma regenerates experiment E11: Σ from a correct
// majority.
func BenchmarkMajoritySigma(b *testing.B) {
	for _, n := range []int{3, 5, 9, 15} {
		b.Run(benchName("n", n), func(b *testing.B) {
			f := dist.NewFailurePattern(n)
			r := newRunner(b, sim.Config{
				Pattern:   f,
				History:   sim.HistoryFunc(func(dist.ProcID, dist.Time) any { return nil }),
				Program:   fd.MajoritySigmaProgram(f.All()),
				Scheduler: sim.NewRandomScheduler(0), MaxSteps: 1000, DisableTrace: true,
			})
			var steps, msgs int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := r.Reset(int64(i)).Run()
				if err != nil {
					b.Fatal(err)
				}
				steps += res.Steps
				msgs += res.MessagesSent
			}
			reportRun(b, steps, msgs)
		})
	}
}

// BenchmarkABDRegister regenerates experiment E12: ABD operations per run
// on the Proposition 1 S-register, the one-key store, with every run's
// completion and linearizability checked.
func BenchmarkABDRegister(b *testing.B) {
	f := dist.NewFailurePattern(5)
	scripts := make([][]register.KeyedOp, f.N())
	scripts[0] = []register.KeyedOp{{Kind: register.WriteOp, Arg: 1001}, {Kind: register.ReadOp}, {Kind: register.WriteOp, Arg: 1002}}
	scripts[1] = []register.KeyedOp{{Kind: register.ReadOp}, {Kind: register.WriteOp, Arg: 2001}, {Kind: register.ReadOp}}
	cfg, err := register.StoreSweepConfig{
		Pattern: f, S: dist.NewProcSet(1, 2), Store: register.StoreConfig{Keys: 1, Window: 1},
		Scripts: scripts, Stab: 15, MaxSteps: 60_000,
	}.SimConfig()
	if err != nil {
		b.Fatal(err)
	}
	cfg.Scheduler = sim.NewRandomScheduler(0)
	r := newRunner(b, cfg)
	var steps, msgs int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := r.Reset(int64(i)).Run()
		if err != nil {
			b.Fatal(err)
		}
		if err := register.VerifyStoreRunReach(res, f.Correct(), nil); err != nil {
			b.Fatalf("seed %d: %v", i, err)
		}
		steps += res.Steps
		msgs += res.MessagesSent
	}
	reportRun(b, steps, msgs)
}

// BenchmarkStore regenerates experiments E17–E35 on the keyed register
// store: one row per operating point, every row one
// register.StoreSweepConfig run by the one store-run definition
// (StoreSweepConfig.SimConfig) through one harness (runStoreRow), with
// completed client operations per second of wall clock as the headline
// metric. Unless a row says otherwise it is the n=5 store shared by S =
// {p1,p2,p3} on a failure-free pattern, 12 zipf-skewed ops per client.
//
// E17 is throughput vs the client pipelining window (window > 1 must
// strictly beat window = 1 on the same seed set). E19 shards the same key
// space across disjoint replica groups at the E17 window=8 operating point:
// replica-B/node must shrink with the shard count while shards=1 stays
// within noise of E17's window=8 row. E21 is the allocation trajectory of
// the pooled hot path, read off every row's allocs/op (the
// steady-state-zero tripwire is TestStoreAllocsPerStep). E22 turns reply
// piggybacking on at the E19 operating points — msgs/op must fall strictly
// below the matching E19 row. E23 compares a fixed window against the AIMD
// per-shard controller under a whole-group shard crash. E24 turns the
// adversarial network on (loss, duplication, bounded extra delay) with
// retransmission armed, and E25 adds a partition that heals mid-run; every
// op still completes, and the price shows up as retransmits/op, drops/op
// and dups/op. E27/E28 are open-loop arrivals at the E22 shards=4 point:
// roughly 80% of closed-loop capacity, and overload, where queueing delay
// dominates the tail. E18, E20 and E26 (the batching-off and coalescing
// ablations) are retired. E29/E30 are the multi-word scale points. E31–
// E33 are the fast-read experiments: read-heavy failure-free (msgs/op ≥ 30%
// and read p50 halved vs the identical two-phase row), the E25 network,
// and the E29 scale point. E35 is the crash-recovery row.
func BenchmarkStore(b *testing.B) {
	const n, keys = 5, 12
	f := dist.NewFailurePattern(n)
	s := dist.RangeSet(1, 3)
	row := func(name string, store register.StoreConfig) storeRow {
		return storeRow{
			name: name,
			cfg:  register.StoreSweepConfig{Pattern: f, S: s, Store: store, Stab: 15},
			wl:   register.StoreWorkloadConfig{OpsPerClient: 12, WriteRatio: -1, Skew: 1.3, Seed: 42},
		}
	}
	var rows []storeRow
	// E17: throughput vs pipelining window.
	for _, w := range []int{1, 2, 4, 8} {
		rows = append(rows, row(benchName("window", w), register.StoreConfig{Keys: keys, Window: w}))
	}
	// E19: replica state and throughput vs shard count at window=8
	// (shards=1 doubles as the E17 window=8 parity check).
	for _, sc := range []int{1, 2, 4} {
		rows = append(rows, row(benchName("shards", sc), register.StoreConfig{Keys: keys, Shards: sc, Window: 8}))
	}
	rows = append(rows,
		// E22: reply piggybacking at the E19 operating points.
		row("shards=1-piggyback", register.StoreConfig{Keys: keys, Window: 8, Piggyback: true}),
		row("shards=4-piggyback", register.StoreConfig{Keys: keys, Shards: 4, Window: 8, Piggyback: true}),
	)
	// E23: shard 1's whole replica group ({p2, p4} under the canonical
	// n=5/shards=2 layout) is dead from the start and every client sits in
	// shard 0's surviving group, so only healthy-shard ops complete. The
	// adaptive controller grows the healthy shard toward the cap (2× start)
	// and decays the dead shard to 1 instead of pinning client effort.
	crashShard := func(name string, store register.StoreConfig) storeRow {
		r := row(name, store)
		r.cfg.Pattern, r.cfg.S = dist.CrashPattern(n, 2, 4), dist.NewProcSet(1, 3, 5)
		return r
	}
	rows = append(rows,
		crashShard("crashshard-fixed", register.StoreConfig{Keys: keys, Shards: 2, Window: 2}),
		crashShard("crashshard-adaptive", register.StoreConfig{
			Keys: keys, Shards: 2, Window: 2, AdaptiveWindow: true, MaxWindow: 4,
		}),
	)
	piggyback4 := register.StoreConfig{Keys: keys, Shards: 4, Window: 8, Piggyback: true}
	for _, tc := range []struct {
		name string
		gap  int // open-loop mean arrival gap
	}{
		{"openloop", 5}, // E27: ~80% of closed-loop capacity
		{"overload", 2}, // E28: arrivals faster than service
	} {
		store := piggyback4
		store.OpenLoop, store.ArrivalGap, store.ArrivalJitter = true, tc.gap, true
		rows = append(rows, row(tc.name, store))
	}
	// E31: the fast-read operating point — read-heavy zipf (write ratio
	// 0.1), failure-free, at the E22 shards=4 piggyback configuration. The
	// on row elides the write-back round on (nearly) every read.
	readHeavy := func(name string, store register.StoreConfig) storeRow {
		r := row(name, store)
		r.wl.WriteRatio = 0.1
		return r
	}
	fastReads := piggyback4
	fastReads.FastReads = true
	rows = append(rows, readHeavy("readheavy-fastread-off", piggyback4), readHeavy("readheavy-fastread-on", fastReads))
	// E29/E30 (and E33 with fast reads): systems past the old 64-process
	// ceiling with one client per shard group, retransmission and adaptive
	// windows armed, under 3% loss, 3% duplication, up to 3 ticks of extra
	// delay and a partition cutting group 0 off group 1 during [60, 300).
	// At n=128 unanimity breaks across 8-replica groups, so E33's elision
	// rate is the realistic one, not the failure-free ceiling.
	for _, tc := range []struct {
		n, shards, opsPerClient int
		fastReads               bool
	}{{128, 16, 4, false}, {256, 32, 3, false}, {128, 16, 4, true}} {
		m, err := register.NewShardMap(tc.n, 64, tc.shards)
		if err != nil {
			b.Fatal(err)
		}
		name := fmt.Sprintf("scale-n=%d-shards=%d", tc.n, tc.shards)
		if tc.fastReads {
			name += "-fastread"
		}
		rows = append(rows, storeRow{
			name: name,
			cfg: register.StoreSweepConfig{
				Pattern: dist.NewFailurePattern(tc.n), S: dist.RangeSet(1, dist.ProcID(tc.shards)),
				Store: register.StoreConfig{
					Keys: 64, Shards: tc.shards, Window: 2,
					AdaptiveWindow: true, MaxWindow: 6, StallSteps: 8,
					Retransmit: true, RTO: 24, MaxRTO: 96, FastReads: tc.fastReads,
				},
				Faults: &sim.FaultPlan{
					Seed: 7, Loss: 0.03, Dup: 0.03, MaxDelay: 3,
					Partitions: []dist.Partition{{A: m.Group(0), B: m.Group(1), From: 60, Until: 300}},
				},
			},
			wl: register.StoreWorkloadConfig{OpsPerClient: tc.opsPerClient, WriteRatio: -1, Skew: 1.2, Seed: 808},
		})
	}
	// E24: 5% loss, 5% duplication, up to 3 ticks of extra delay, with
	// retransmission armed. E25 adds a partition between shard groups 1 and
	// 2 ({p2} and {p3}) during [50, 400): parked ops resume after the heal.
	// E32 runs fast reads on the E25 network, where broken phase-1 unanimity
	// leans on the write-back fallback and the clean/faulted split prices it.
	for _, tc := range []struct {
		name      string
		partition bool
		fastReads bool
	}{{"faults-loss", false, false}, {"faults-partition", true, false}, {"faults-partition-fastread", true, true}} {
		r := row(tc.name, register.StoreConfig{
			Keys: keys, Shards: 4, Window: 8, Retransmit: true, RTO: 16, FastReads: tc.fastReads,
		})
		r.cfg.Faults = &sim.FaultPlan{Seed: 7, Loss: 0.05, Dup: 0.05, MaxDelay: 3}
		if tc.partition {
			r.cfg.Faults.Partitions = []dist.Partition{{A: dist.NewProcSet(2), B: dist.NewProcSet(3), From: 50, Until: 400}}
		}
		rows = append(rows, r)
	}
	// E35: the n=6/shards=3 store (groups {1,4}, {2,5}, {3,6}) with replica
	// p5 crashed at t=40 and recovered at t=120, its shard-1 state wiped,
	// under the shared adversarial network. The one-way partition parks
	// shard-1 operations past the recovery, so the rejoined replica sees live
	// quorum traffic and must have repopulated when the run stops; the
	// recovery price lands in retransmits/op and the faulted latency split.
	recovery := dist.NewFailurePattern(6)
	recovery.CrashAt(5, 40)
	recovery.RecoverAt(5, 120)
	rec := row("faults-recovery", register.StoreConfig{
		Keys: keys, Shards: 3, Window: 2, Piggyback: true, Retransmit: true, RTO: 16,
	})
	rec.cfg.Pattern, rec.cfg.Faults, rec.wl.OpsPerClient = recovery, sharedAdversary(), 10
	rec.check = func(res *sim.Result) error {
		if res.Automata[4].(*register.StoreNode).ReplicaStateBytes() == 0 {
			return fmt.Errorf("recovered p5 holds no replica state — the wipe was never repopulated")
		}
		return nil
	}
	rows = append(rows, rec)

	for _, r := range rows {
		b.Run(r.name, func(b *testing.B) { runStoreRow(b, r) })
	}
}

// storeRow is one BenchmarkStore row: a store run as StoreSweepConfig
// defines it, the workload its scripts are generated from (N, S, Keys and
// Shards come from cfg), and an optional extra per-run check.
type storeRow struct {
	name  string
	cfg   register.StoreSweepConfig
	wl    register.StoreWorkloadConfig
	check func(res *sim.Result) error
}

// runStoreRow runs one row untraced on seeds 0..b.N-1. Every run must end on
// its stop condition: every correct client finished its work on the
// available shards it can reach. The row reports completed ops per second,
// replica-B/node (of the last run), steps/op and msgs/op and the per-op
// latency tail in client steps, plus what only some rows produce:
// retransmits/op, drops/op and dups/op under faults, the clean/faulted
// latency split once an op paid a retransmit (on clean rows it would
// duplicate the total), and fastreads/op and fallbacks/op under fast reads.
// Everything but the wall-clock metrics is schedule-determined, so at a
// fixed iteration count it is exactly reproducible and can be gated like
// msgs/op.
func runStoreRow(b *testing.B, row storeRow) {
	cfg, wl := row.cfg, row.wl
	wl.N, wl.S, wl.Keys, wl.Shards = cfg.Pattern.N(), cfg.S, cfg.Store.Keys, cfg.Store.Shards
	scripts, err := register.GenerateStoreWorkload(wl)
	if err != nil {
		b.Fatal(err)
	}
	cfg.Scripts = scripts
	simCfg, err := cfg.SimConfig()
	if err != nil {
		b.Fatal(err)
	}
	r := newRunner(b, simCfg)
	var steps, msgs, drops, dups, completed, retransmits, fastReads, fallbacks, replicaBytes int64
	var lat, clean, faulted sweep.Hist
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := r.Reset(int64(i)).Run()
		if err != nil {
			b.Fatal(err)
		}
		if res.Reason != sim.ReasonStopCond {
			b.Fatalf("seed %d ended %s before every client finished its reachable work", i, res.Reason)
		}
		if row.check != nil {
			if err := row.check(res); err != nil {
				b.Fatalf("seed %d: %v", i, err)
			}
		}
		steps += res.Steps
		msgs += res.MessagesSent
		drops += res.MessagesDropped
		dups += res.MessagesDuplicated
		replicaBytes = 0
		for _, a := range res.Automata {
			node := a.(*register.StoreNode)
			completed += int64(node.CompletedOps())
			retransmits += node.Retransmits()
			fastReads += node.FastReads()
			fallbacks += node.ReadFallbacks()
			replicaBytes += int64(node.ReplicaStateBytes())
			lat.Merge(node.LatencyHist())
			clean.Merge(node.CleanLatencyHist())
			faulted.Merge(node.FaultedLatencyHist())
		}
	}
	b.StopTimer()
	perOp := func(v int64, unit string) { b.ReportMetric(float64(v)/float64(completed), unit) }
	quantile := func(h *sweep.Hist, q float64, unit string) { b.ReportMetric(float64(h.Quantile(q)), unit) }
	b.ReportMetric(float64(completed)/b.Elapsed().Seconds(), "ops/sec")
	b.ReportMetric(float64(replicaBytes)/float64(cfg.Pattern.N()), "replica-B/node")
	reportRun(b, steps, msgs)
	if lat.Count > 0 {
		quantile(&lat, 0.50, "lat_p50_steps")
		quantile(&lat, 0.99, "lat_p99_steps")
		quantile(&lat, 0.999, "lat_p999_steps")
	}
	if faulted.Count > 0 {
		quantile(&clean, 0.50, "lat_clean_p50_steps")
		quantile(&clean, 0.99, "lat_clean_p99_steps")
		quantile(&faulted, 0.50, "lat_faulted_p50_steps")
		quantile(&faulted, 0.99, "lat_faulted_p99_steps")
	}
	if cfg.Faults != nil {
		perOp(retransmits, "retransmits/op")
		perOp(drops, "drops/op")
		perOp(dups, "dups/op")
	}
	if fastReads > 0 || fallbacks > 0 {
		perOp(fastReads, "fastreads/op")
		perOp(fallbacks, "fallbacks/op")
	}
}

// sharedAdversary is the network the E35 store row and the E36/E37 consensus
// rows all run under — the SAME sim.FaultPlan value, so msgs/op (sharing)
// and msgs/decision (agreeing) are directly comparable on one adversary: 5%
// loss, 5% duplication, up to 2 ticks of extra delay, and a one-way
// partition cutting {p1,p3} off from p2 during [30, 150) before healing.
func sharedAdversary() *sim.FaultPlan {
	return &sim.FaultPlan{
		Seed: 7, Loss: 0.05, Dup: 0.05, MaxDelay: 2,
		Partitions: []dist.Partition{{
			A: dist.NewProcSet(1, 3), B: dist.NewProcSet(2), From: 30, Until: 150, OneWay: true,
		}},
	}
}

// consensusRunner runs the one consensus run, sc.SimConfig, on the
// runner's own random scheduler, which Reset reseeds.
func consensusRunner(b *testing.B, sc consensus.SweepConfig) *sim.Runner {
	cfg, err := sc.SimConfig()
	if err != nil {
		b.Fatal(err)
	}
	return newRunner(b, cfg)
}

// BenchmarkConsensus regenerates experiment E13: the Ω+Σ baseline.
func BenchmarkConsensus(b *testing.B) {
	for _, n := range []int{3, 5, 9} {
		b.Run(benchName("n", n), func(b *testing.B) {
			f := dist.NewFailurePattern(n)
			props := agreement.DistinctProposals(n)
			r := consensusRunner(b, consensus.SweepConfig{Pattern: f, Proposals: props})
			var steps, msgs int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := r.Reset(int64(i)).Run()
				if err != nil {
					b.Fatal(err)
				}
				if rep := agreement.Check(f, 1, props, res); !rep.OK() {
					b.Fatal(rep)
				}
				steps += res.Steps
				msgs += res.MessagesSent
			}
			reportRun(b, steps, msgs)
		})
	}
}

// BenchmarkConsensusFaults regenerates experiments E36/E37: the Ω+Σ
// consensus baseline under the IDENTICAL adversarial network as the E35
// store row (sharedAdversary) — the paper's title contrast priced on one
// fault plan: agreeing pays msgs/decision once per process, sharing pays
// msgs/op per operation, and both numbers come off the same loss, dup,
// delay and one-way partition schedule. E36 runs the fault-free pattern
// (all six processes must decide once the partition heals at t=150); E37
// crashes p5 at t=40 and recovers it at t=200 with its volatile state
// wiped, so the run ends only when the recovered process has relearned the
// decision from the periodic decide re-broadcast.
func BenchmarkConsensusFaults(b *testing.B) {
	const n = 6
	run := func(b *testing.B, f *dist.FailurePattern) {
		props := agreement.DistinctProposals(n)
		target := f.Correct().Union(f.Recovering())
		r := consensusRunner(b, consensus.SweepConfig{Pattern: f, Proposals: props, Faults: sharedAdversary()})
		var steps, msgs, decisions, drops, dups int64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := r.Reset(int64(i)).Run()
			if err != nil {
				b.Fatal(err)
			}
			if rep := agreement.Check(f, 1, props, res); !rep.OK() {
				b.Fatal(rep)
			}
			if len(res.Decisions) < target.Len() {
				b.Fatalf("seed %d: %d of %d target processes decided (%s)",
					i, len(res.Decisions), target.Len(), res.Reason)
			}
			decisions += int64(len(res.Decisions))
			steps += res.Steps
			msgs += res.MessagesSent
			drops += res.MessagesDropped
			dups += res.MessagesDuplicated
		}
		b.StopTimer()
		b.ReportMetric(float64(msgs)/float64(decisions), "msgs/decision")
		b.ReportMetric(float64(drops)/float64(b.N), "drops/op")
		b.ReportMetric(float64(dups)/float64(b.N), "dups/op")
		reportRun(b, steps, msgs)
	}
	// E36: every process correct; all six decide across the faulty network.
	b.Run("faults", func(b *testing.B) {
		run(b, dist.NewFailurePattern(n))
	})
	// E37: crash + recovery — the wiped process relearns the decision.
	b.Run("faults-recover", func(b *testing.B) {
		f := dist.NewFailurePattern(n)
		f.CrashAt(5, 40)
		f.RecoverAt(5, 200)
		run(b, f)
	})
}

// BenchmarkAblationStackVsOracle measures what the Figure 5 emulation layer
// costs compared to querying a σ₂ₖ oracle directly — the design-choice
// ablation called out in DESIGN.md (layered reductions vs fused oracles).
func BenchmarkAblationStackVsOracle(b *testing.B) {
	f := dist.NewFailurePattern(8)
	b.Run("oracle", func(b *testing.B) {
		benchTask(b, core.TaskConfig{Task: core.TaskFig4, Pattern: f, K: 2}, sim.NewRandomScheduler(0))
	})
	b.Run("stacked", func(b *testing.B) {
		benchTask(b, core.TaskConfig{Task: core.TaskStack, Pattern: f, K: 2}, sim.NewRandomScheduler(0))
	})
}

// BenchmarkAblationSchedulers compares the random fair scheduler against
// round-robin on the same workload (Figure 2): interleaving breadth vs speed.
// Round-robin ignores the run seed, so every one of its runs is the same.
func BenchmarkAblationSchedulers(b *testing.B) {
	task := core.TaskConfig{Task: core.TaskFig2, Pattern: dist.NewFailurePattern(6)}
	b.Run("random", func(b *testing.B) {
		benchTask(b, task, sim.NewRandomScheduler(0))
	})
	b.Run("roundrobin", func(b *testing.B) {
		benchTask(b, task, &sim.RoundRobinScheduler{})
	})
}

func benchName(prefix string, v int) string {
	return prefix + "=" + strconv.Itoa(v)
}

// BenchmarkHierarchy regenerates experiment E14: the full failure-detector
// strictness chain, every edge machine-checked.
func BenchmarkHierarchy(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := hierarchy.Build(hierarchy.Config{N: 6, K: 2, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// workerCounts returns the distinct pool sizes worth benchmarking on this
// machine: single-threaded and all cores.
func workerCounts() []int {
	if n := runtime.NumCPU(); n > 1 {
		return []int{1, n}
	}
	return []int{1}
}

// BenchmarkExplorer regenerates experiment E15: bounded model-checking
// throughput of the binary-keyed parallel explorer on the Figure 2 safety
// check (states/sec is the headline metric; results are bit-identical
// across worker counts, asserted by TestFig2ExploreWorkerDeterminism).
//
// Only the workers=1 row's allocs/op is exact (85,798 at -benchtime=200x
// on amd64). With more workers it depends on how the goroutines
// interleave: three runs of one build at workers=2 gave 90,957, 91,005 and
// 90,960, so an "allocs/op no higher" comparison cannot be judged on those
// rows.
func BenchmarkExplorer(b *testing.B) {
	task := core.TaskConfig{Task: core.TaskFig2, Pattern: dist.NewFailurePattern(3), Stab: 1}
	sc, err := task.SimConfig()
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range workerCounts() {
		b.Run(benchName("workers", w), func(b *testing.B) {
			var states, steps int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := sim.Explore(sim.ExploreConfig{
					Pattern:  sc.Pattern,
					History:  sc.History,
					Program:  sc.Program,
					MaxDepth: 14,
					TimeCap:  1,
					Workers:  w,
					Check:    task.Safety(),
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.Violation != "" {
					b.Fatal(res.Violation)
				}
				states += res.StatesVisited
				steps += res.StepsExecuted
			}
			b.StopTimer()
			b.ReportMetric(float64(states)/b.Elapsed().Seconds(), "states/sec")
			b.ReportMetric(float64(states)/float64(b.N), "states/op")
			b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
		})
	}
}

// BenchmarkSweep regenerates experiment E16: concurrent seed-sweep
// throughput (Figure 2, 64 seeds per op) across pool sizes. Aggregates are
// bit-identical across worker counts (TestSweepWorkerDeterminism).
func BenchmarkSweep(b *testing.B) {
	const seeds = 64
	task := core.TaskConfig{Task: core.TaskFig2, Pattern: dist.NewFailurePattern(6)}
	sc, err := task.SimConfig()
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range workerCounts() {
		b.Run(benchName("workers", w), func(b *testing.B) {
			var runs, steps, msgs int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := sweep.Run(sweep.Config{
					Sim:       func() sim.Config { return sc },
					SeedStart: int64(i) * seeds,
					Seeds:     seeds,
					Workers:   w,
					Check:     task.Check,
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.Failures > 0 {
					b.Fatal(res.FirstFailErr)
				}
				runs += res.Runs
				steps += res.Steps.Sum
				msgs += res.Msgs.Sum
			}
			b.StopTimer()
			b.ReportMetric(float64(runs)/b.Elapsed().Seconds(), "runs/sec")
			reportRun(b, steps, msgs)
		})
	}
}

// BenchmarkStoreSweepWorkers regenerates experiment E34: multi-core speedup
// of the store sweep engine on a full-stack workload (fast reads, piggyback,
// adaptive windows, retransmission, loss + dup + a healing partition), 32
// seeds per op on pools of 1/2/4 workers. On a 1-vCPU container the extra
// workers only add handoff overhead; run via `CPU=4 scripts/bench.sh` (which
// passes -cpu=4) for the speedup rows — aggregates are bit-identical across
// all of them either way (TestStoreFastReadSweepFallbacksAndWorkerIndependent).
func BenchmarkStoreSweepWorkers(b *testing.B) {
	const n, shards, seeds = 6, 3, 32
	f := dist.NewFailurePattern(n)
	s := dist.NewProcSet(1, 2, 3)
	scripts, err := register.GenerateStoreWorkload(register.StoreWorkloadConfig{
		N: n, S: s, Keys: 9, Shards: shards, OpsPerClient: 10, WriteRatio: 0.4, Skew: 1.4, Seed: 23,
	})
	if err != nil {
		b.Fatal(err)
	}
	cfg := register.StoreSweepConfig{
		Pattern: f, S: s,
		Store: register.StoreConfig{
			Keys: 9, Shards: shards, Window: 2, Piggyback: true,
			AdaptiveWindow: true, MaxWindow: 6, StallSteps: 8,
			Retransmit: true, RTO: 16, FastReads: true,
		},
		Scripts: scripts,
		Faults: &sim.FaultPlan{
			Seed: 99, Loss: 0.05, Dup: 0.05, MaxDelay: 3,
			Partitions: []dist.Partition{
				{A: dist.NewProcSet(1, 4), B: dist.NewProcSet(2, 5), From: 40, Until: 160},
			},
		},
		Seeds: seeds,
	}
	for _, w := range []int{1, 2, 4} {
		b.Run(benchName("workers", w), func(b *testing.B) {
			c := cfg
			c.Workers = w
			var runs, steps, msgs, fast int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.SeedStart = int64(i) * seeds
				res, err := register.StoreSweep(c)
				if err != nil {
					b.Fatal(err)
				}
				if res.Failures > 0 {
					b.Fatalf("seed %d: %v", res.FirstFailSeed, res.FirstFailErr)
				}
				runs += res.Runs
				steps += res.Steps.Sum
				msgs += res.Msgs.Sum
				fast += res.FastReads.Sum
			}
			b.StopTimer()
			b.ReportMetric(float64(runs)/b.Elapsed().Seconds(), "runs/sec")
			b.ReportMetric(float64(fast)/float64(runs), "fastreads/run")
			reportRun(b, steps, msgs)
		})
	}
}
