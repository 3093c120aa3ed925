package register

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/fd"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// StoreSweepConfig parameterizes a multi-seed store experiment on the
// concurrent sweep engine: one keyed workload, many scheduler seeds.
type StoreSweepConfig struct {
	// Pattern is the failure pattern shared by every run (fixes n).
	Pattern *dist.FailurePattern
	// S is the store's member set, Store the store parameters, Scripts the
	// per-process keyed scripts (see GenerateStoreWorkload).
	S       dist.ProcSet
	Store   StoreConfig
	Scripts [][]KeyedOp
	// Stab is the Σ_S stabilization time (default 20).
	Stab dist.Time
	// MaxSteps bounds each run; 0 derives a generous budget from the
	// script volume (and, with Faults, from the last finite partition heal).
	MaxSteps int64
	// Faults, when non-nil, is the adversarial network applied to every run
	// (sim.Config.Faults). Loss and partitions require Store.Retransmit —
	// without retransmission a single lost request strands its op forever.
	// Completion verdicts become reachability-aware: a client is only
	// required to finish operations on shards it can reach through the run
	// horizon (partitions that heal before the horizon block nothing), and
	// minority-side operations must park without violating linearizability.
	Faults *sim.FaultPlan
	// SeedStart, Seeds and Workers configure the sweep (see sweep.Config).
	SeedStart int64
	Seeds     int64
	Workers   int
}

// StoreSweep runs Seeds store runs on the sweep engine, every worker
// configured by SimConfig, and verifies every run with VerifyStoreRunReach:
// correct clients finish every operation routed to an available shard they
// can reach (one whose replica group keeps a correct member — a crash may
// only degrade its own shard's availability) and every per-key history is
// linearizable, including histories on shards that lost replicas mid-run.
// Per-run verdicts are pure functions of the seed, so the aggregate inherits
// the engine's guarantee of being bit-identical for every worker count.
func StoreSweep(cfg StoreSweepConfig) (*sweep.Result, error) {
	run, err := cfg.validate()
	if err != nil {
		return nil, err
	}
	return sweep.Run(sweep.Config{
		Sim:       run.simConfig,
		SeedStart: cfg.SeedStart,
		Seeds:     cfg.Seeds,
		Workers:   cfg.Workers,
		Check: func(seed int64, res *sim.Result) error {
			return VerifyStoreRunReach(res, run.correct, run.masks)
		},
		// Per-op latency (total plus the clean/faulted fault-exposure split)
		// merges exactly from every client node into the sweep aggregate,
		// and the run's fast-read/fallback totals land as one observation
		// per run, so every aggregate — percentiles included — is
		// bit-identical for every worker count like the rest of the
		// verdicts.
		Collect: func(res *sim.Result, r *sweep.Result) {
			var fast, fall int64
			for _, a := range res.Automata {
				if node, ok := a.(*StoreNode); ok {
					r.Lat.Merge(node.LatencyHist())
					r.LatClean.Merge(node.CleanLatencyHist())
					r.LatFaulted.Merge(node.FaultedLatencyHist())
					fast += node.FastReads()
					fall += node.ReadFallbacks()
				}
			}
			r.FastReads.Observe(fast)
			r.Fallbacks.Observe(fall)
		},
	})
}

// SimConfig returns the runner configuration of one store run: the one
// definition of a store run, which StoreSweep gives each of its workers. It
// holds a StoreProgram, a Σ_S oracle, the EffectiveMaxSteps budget, a
// stop condition that holds once every correct client has finished its work
// on the available shards it can reach, and the fault plan. It is untraced
// (DisableTrace): the checker reads the run's op log (sim.Result.Ops),
// which every run keeps. cfg is validated as StoreSweep validates it.
//
// A caller that needs another run shape flips sim.Config fields on the
// result: DisableTrace cleared for a full trace, or its own Scheduler.
// Every call returns a fresh stop cursor, which remembers how far the
// current run has finished, so one config serves one runner.
func (cfg StoreSweepConfig) SimConfig() (sim.Config, error) {
	run, err := cfg.validate()
	if err != nil {
		return sim.Config{}, err
	}
	return run.simConfig(), nil
}

// storeRun is a validated StoreSweepConfig plus what all of its runs share.
type storeRun struct {
	cfg      StoreSweepConfig
	shards   *ShardMap        // read by every runner's nodes
	sigma    *fd.SigmaSOracle // read by every runner
	maxSteps int64
	correct  dist.ProcSet
	clients  dist.ProcSet // correct members of S
	avail    ShardSet
	masks    []ShardSet // per-client reachable shards (StoreReach); nil = all
}

// validate checks cfg up front, so callers get an error rather than a
// worker panic, and derives what every run shares.
func (cfg StoreSweepConfig) validate() (*storeRun, error) {
	if cfg.Pattern == nil {
		return nil, fmt.Errorf("register: StoreSweep needs a failure pattern")
	}
	n := cfg.Pattern.N()
	// StoreProgram's construction-time validation, once; simConfig builds
	// the program on the shard map it returns.
	shardMap, err := validateStore(n, cfg.S, cfg.Store, cfg.Scripts)
	if err != nil {
		return nil, err
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(n); err != nil {
			return nil, err
		}
		if (cfg.Faults.Loss > 0 || len(cfg.Faults.Partitions) > 0) && !cfg.Store.Retransmit {
			return nil, fmt.Errorf("register: faults with loss or partitions need Store.Retransmit — a lost request would strand its operation forever")
		}
	}
	stab := cfg.Stab
	if stab <= 0 {
		stab = 20
	}
	run := &storeRun{cfg: cfg, shards: shardMap, sigma: fd.NewSigmaS(cfg.Pattern, cfg.S, stab), maxSteps: cfg.maxSteps(shardMap)}
	run.correct = cfg.Pattern.Correct()
	run.clients = cfg.S.Intersect(run.correct)
	if run.clients.IsEmpty() {
		// Without a correct client every run stops immediately and the
		// per-key check passes on an empty history — a sweep that verifies
		// nothing must be a setup error, not a success.
		return nil, fmt.Errorf("register: no correct client — S=%v is entirely crashed by %v", cfg.S, cfg.Pattern)
	}
	run.avail = shardMap.Available(run.correct)
	if run.avail.IsEmpty() {
		// Same reasoning per shard: if every replica group is fully
		// crashed, no operation can ever complete and every run verifies
		// an empty history.
		return nil, fmt.Errorf("register: no available shard — every replica group of [%s] is crashed by %v", shardMap, cfg.Pattern)
	}
	// Per-client completion masks: available shards the client can reach
	// through the run horizon (nil without partitions — everything
	// reachable).
	run.masks = StoreReach(shardMap, cfg.Faults, run.correct, run.clients, dist.Time(run.maxSteps))
	if run.masks != nil {
		var any ShardSet
		for set := run.clients; !set.IsEmpty(); {
			p := set.Min()
			set = set.Remove(p)
			any = any.Union(run.avail.Intersect(run.masks[p]))
		}
		if any.IsEmpty() {
			// An unhealed partition cutting every client off every shard
			// verifies only empty histories — a setup error, like avail == 0.
			return nil, fmt.Errorf("register: no client can reach any available shard through the run horizon (unhealed partitions cut everything)")
		}
	}
	return run, nil
}

// simConfig builds one runner's configuration. The stop cursor is per
// runner: it remembers how far the current run has finished. The Σ_S
// oracle, the store config and the shard map are shared.
func (r *storeRun) simConfig() sim.Config {
	cfg := &r.cfg
	return sim.Config{
		Pattern:      cfg.Pattern,
		History:      r.sigma,
		Program:      storeProgram(cfg.Pattern.N(), cfg.S, &cfg.Store, r.shards, cfg.Scripts),
		MaxSteps:     r.maxSteps,
		StopWhen:     newStoreStopCursor(r.clients, r.avail, r.masks).done,
		Faults:       cfg.Faults,
		DisableTrace: true,
	}
}

// EffectiveMaxSteps returns the per-run step budget after defaulting: the
// configured MaxSteps, else a generous budget derived from the script volume,
// scaled for replica groups above 64 members and stretched past the last
// finite partition heal (a healed partition only delays; the budget must
// leave room for parked operations to drain after it).
func (cfg StoreSweepConfig) EffectiveMaxSteps() int64 {
	var m *ShardMap
	if cfg.Pattern != nil {
		m, _ = cfg.Store.ShardMap(cfg.Pattern.N()) // nil when invalid: validation reports that
	}
	return cfg.maxSteps(m)
}

// maxSteps is EffectiveMaxSteps on the store's shard map m (nil when the
// configuration is invalid).
func (cfg StoreSweepConfig) maxSteps(m *ShardMap) int64 {
	if cfg.MaxSteps > 0 {
		return cfg.MaxSteps
	}
	ms := 20_000 + 2_000*int64(TotalKeyedOps(cfg.Scripts))
	// Every op's quorum round trip fans out to g members and waits for
	// each of them to be scheduled among n processes, so a run's ticks
	// grow with g². Groups of up to 64 members keep the flat budget; a
	// larger group scales it by g²/2048 = 2·(g/64)², which leaves more
	// than 2× headroom over the ticks measured at g = 100, 128 and 256.
	if g := largestGroup(m); g > 64 {
		ms = ms * int64(g*g) / 2048
	}
	if cfg.Faults != nil {
		for _, pt := range cfg.Faults.Partitions {
			if pt.Until != dist.NoCrash && 2*int64(pt.Until) > ms {
				ms = 2 * int64(pt.Until)
			}
		}
	}
	return ms
}

// largestGroup returns the member count of m's largest replica group, or 0
// for a nil map.
func largestGroup(m *ShardMap) int {
	if m == nil {
		return 0
	}
	g := 0
	for sh := 0; sh < m.Shards(); sh++ {
		g = max(g, m.Group(sh).Len())
	}
	return g
}

// StoreReach computes, per client, the set of shards whose correct
// replicas it can all reach at some point before the horizon — i.e. no
// partition separating the client from a correct group member extends to the
// horizon. Σ_S completion needs acks from every correct group member (the
// oracle's trusted set converges to Correct(F)), so one unreachable correct
// replica parks the whole shard for that client. Returns nil when fp is nil
// or partition-free (everything reachable); otherwise a ProcID-indexed
// slice, zero for non-clients.
func StoreReach(m *ShardMap, fp *sim.FaultPlan, correct, clients dist.ProcSet, horizon dist.Time) []ShardSet {
	if fp == nil || len(fp.Partitions) == 0 {
		return nil
	}
	masks := make([]ShardSet, int(clients.Max())+1)
	for set := clients; !set.IsEmpty(); {
		c := set.Min()
		set = set.Remove(c)
		for sh := 0; sh < m.Shards(); sh++ {
			reachable := true
			for g := m.Group(sh).Intersect(correct); !g.IsEmpty(); {
				q := g.Min()
				g = g.Remove(q)
				if q != c && fp.CutThrough(c, q, horizon) {
					reachable = false
					break
				}
			}
			if reachable {
				masks[c] = masks[c].Add(sh)
			}
		}
	}
	return masks
}

// storeStopCursor is the stop condition of a store run, for one runner and
// one run at a time: it holds once every client has finished its work on
// its shards (DoneOn). A correct client's DoneOn answer is monotone within a
// run: its queues are filled at construction and only drain, and recovery
// only rewinds processes that crashed, which are never correct. So once a
// client is done it stays done, and the cursor re-checks only the lowest
// client not yet done, advancing past finished ones. It rewinds at tick 0,
// where every run's first StopWhen call lands (sim.Config.StopWhen).
type storeStopCursor struct {
	clients []dist.ProcID
	eff     []ShardSet // per client: the shards it must finish its work on
	next    int        // clients[:next] are done in the current run
}

func newStoreStopCursor(clients dist.ProcSet, avail ShardSet, masks []ShardSet) *storeStopCursor {
	c := &storeStopCursor{clients: clients.AppendMembers(nil)}
	c.eff = make([]ShardSet, len(c.clients))
	for i, p := range c.clients {
		c.eff[i] = avail
		if masks != nil {
			c.eff[i] = avail.Intersect(masks[p])
		}
	}
	return c
}

// done is the sim.Config.StopWhen condition.
func (c *storeStopCursor) done(sn *sim.Snapshot) bool {
	if sn.Now() == 0 {
		c.next = 0
	}
	for ; c.next < len(c.clients); c.next++ {
		node, ok := sn.Automaton(c.clients[c.next]).(*StoreNode)
		if !ok || !node.DoneOn(c.eff[c.next]) {
			return false
		}
	}
	return true
}

// VerifyStoreRunReach checks one finished store run end to end: every
// correct member of S completed every operation routed to an available shard
// (so a crash degraded nothing beyond its own shards), and every key's
// history is linearizable (all registers start at 0) — including keys of a
// shard whose group lost members, whose stuck operations stay pending and
// may be dropped by the checker. masks optionally narrows completion per
// client to the shards it can reach (StoreReach; nil = all): under unhealed
// partitions a correct client must still finish everything on shards it can
// reach, while its minority-side operations may stay parked — the
// graceful-degradation verdict. Linearizability is checked on the full
// recorded history either way: parked operations never returned, so they
// cannot violate. The run must come from a StoreProgram; traced or not, its
// history is the op log (sim.Result.Ops).
func VerifyStoreRunReach(res *sim.Result, correct dist.ProcSet, masks []ShardSet) error {
	for _, a := range res.Automata {
		node, ok := a.(*StoreNode)
		if !ok || node.storeClient == nil || !correct.Contains(node.self) {
			continue
		}
		avail := node.shards.Available(correct)
		if masks != nil {
			avail = avail.Intersect(masks[node.self])
		}
		if !node.DoneOn(avail) {
			return fmt.Errorf("register: correct client p%d stopped at %d/%d scripted ops with work left on available shards %v (%d in flight; run ended: %s)",
				int(node.self), node.completed, node.scriptLen, avail, len(node.pend), res.Reason)
		}
	}
	h := historiesPool.Get().(*keyedHistories)
	defer historiesPool.Put(h)
	h.fill(res.Ops)
	return h.check(0)
}
