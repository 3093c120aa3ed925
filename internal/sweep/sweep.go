// Package sweep is the concurrent multi-run engine of the reproduction: it
// farms a contiguous seed range out to a pool of workers, each owning one
// reusable sim.Runner (Reset(seed) rewinds without reallocating), and
// aggregates per-run statistics. Every experiment that used to iterate
// seeds serially on one goroutine — the lattice's runs-per-relation loop,
// the hierarchy's emulation validation — runs on this engine.
//
// Aggregation is order-independent (sums, minima, histograms over per-seed
// values computed in isolation), so a sweep's Result is bit-identical for
// every worker count.
package sweep

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"strings"
	"sync"

	"repro/internal/dist"
	"repro/internal/sim"
)

// Config parameterizes a sweep.
type Config struct {
	// Sim builds the simulation config for one worker. It is called once
	// per worker, and every call must return an independently usable
	// config: a nil Scheduler (each runner then owns a seeded scheduler)
	// or a fresh one, and fresh instances of anything that keeps state
	// across calls (a History or StopWhen that writes, like the store's
	// stop cursor). Shared read-only components (patterns, the pre-boxed
	// oracles, pure stop conditions and Program functions) are fine; a
	// runner's payload pools are its own (sim.PoolOf).
	Sim func() sim.Config
	// SeedStart is the first seed; the sweep runs seeds
	// [SeedStart, SeedStart+Seeds), which must lie within [0, MaxInt64]:
	// SeedStart is non-negative (Result.FirstFailSeed uses -1 for "none")
	// and SeedStart+Seeds does not overflow.
	SeedStart int64
	// Seeds is the number of runs. Required.
	Seeds int64
	// Workers sets the pool size; 0 means GOMAXPROCS (capped at Seeds).
	// A negative value is an error.
	Workers int
	// Check, when non-nil, judges each finished run; a non-nil error marks
	// the seed as failing. The result is valid only during the call. Check
	// is called concurrently from every worker goroutine and must be safe
	// for concurrent use (pure functions of their arguments are; closures
	// mutating shared state are not).
	Check func(seed int64, res *sim.Result) error
	// Collect, when non-nil, folds a passing run's domain-specific
	// observations — per-operation latency histograms (Result.Lat and its
	// clean/faulted fault-exposure split), fast-read/fallback counters —
	// into the worker's Result shard. Called once per passing run,
	// concurrently from every worker goroutine, each on its own shard; it
	// must only read res and write r's histogram fields. Hist.Merge and
	// Observe are exact and order-independent (each run's observations are
	// a pure function of its seed), so the aggregate stays bit-identical
	// across worker counts.
	Collect func(res *sim.Result, r *Result)
}

// Hist is a power-of-two histogram of a per-run counter.
type Hist struct {
	Count, Sum int64
	Min, Max   int64
	// Buckets[i] counts values v with i = bits.Len64(v): bucket 0 holds
	// zeros, bucket i ≥ 1 holds 2^(i-1) ≤ v < 2^i. Values beyond the last
	// bucket are clamped into it.
	Buckets [24]int64
}

// Observe adds one value.
func (h *Hist) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	if h.Count == 0 || v < h.Min {
		h.Min = v
	}
	if v > h.Max {
		h.Max = v
	}
	h.Count++
	h.Sum += v
	i := bits.Len64(uint64(v))
	if i >= len(h.Buckets) {
		i = len(h.Buckets) - 1
	}
	h.Buckets[i]++
}

// Merge folds o into h.
func (h *Hist) Merge(o *Hist) {
	if o.Count == 0 {
		return
	}
	if h.Count == 0 || o.Min < h.Min {
		h.Min = o.Min
	}
	if o.Max > h.Max {
		h.Max = o.Max
	}
	h.Count += o.Count
	h.Sum += o.Sum
	for i := range h.Buckets {
		h.Buckets[i] += o.Buckets[i]
	}
}

// Mean returns the average observed value (0 when empty).
func (h *Hist) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Quantile estimates the q-quantile of the observed values by linear
// interpolation inside the power-of-two bucket holding the rank: the
// fractional rank q·(Count−1) is located in the cumulative bucket counts and
// mapped linearly across that bucket's value range, tightened to [Min, Max]
// (so a single observation returns it exactly for every q, and the top
// bucket — which clamps everything ≥ 2^22 — never extrapolates past Max).
// q outside [0, 1] is clamped; an empty histogram returns 0.
func (h *Hist) Quantile(q float64) int64 {
	if h.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q >= 1 {
		return h.Max
	}
	rank := q * float64(h.Count-1)
	cum := float64(0)
	for i, c := range h.Buckets {
		if c == 0 {
			continue
		}
		fc := float64(c)
		if rank >= cum+fc {
			cum += fc
			continue
		}
		lo := int64(0)
		if i > 0 {
			lo = int64(1) << (i - 1)
		}
		hi := int64(1) << i
		if i == len(h.Buckets)-1 || hi > h.Max {
			hi = h.Max + 1 // clamped top bucket, or the max sits mid-bucket
		}
		if lo < h.Min {
			lo = h.Min
		}
		v := lo + int64((rank-cum)/fc*float64(hi-lo))
		if v < h.Min {
			v = h.Min
		}
		if v > h.Max {
			v = h.Max
		}
		return v
	}
	return h.Max
}

// String renders min/mean/max and the non-empty power-of-two buckets. The
// final bucket is a clamp — it holds every value ≥ its lower bound — so it
// renders as [lo,inf) rather than a misleading power-of-two range.
func (h *Hist) String() string {
	if h.Count == 0 {
		return "empty"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "min=%d mean=%.1f max=%d |", h.Min, h.Mean(), h.Max)
	for i, c := range h.Buckets {
		if c == 0 {
			continue
		}
		lo := int64(0)
		if i > 0 {
			lo = int64(1) << (i - 1)
		}
		if i == len(h.Buckets)-1 {
			fmt.Fprintf(&b, " [%d,inf):%d", lo, c)
		} else {
			fmt.Fprintf(&b, " [%d,%d):%d", lo, int64(1)<<i, c)
		}
	}
	return b.String()
}

// Result aggregates a sweep.
type Result struct {
	// Runs counts executed runs; Decided those in which every correct
	// process decided. A failing run never counts as decided.
	Runs    int64
	Decided int64
	// Failures counts runs failing Check (or erroring); FirstFailSeed is
	// the smallest failing seed (-1 when none) and FirstFailErr its error.
	Failures      int64
	FirstFailSeed int64
	FirstFailErr  error
	// Steps and Msgs are histograms of executed automaton steps and sent
	// messages per passing run (failing runs appear in Failures only, so
	// Steps.Count == Runs − Failures).
	Steps Hist
	Msgs  Hist
	// Dropped and Duplicated aggregate the fault-injection counters per
	// passing run (all-zero without a sim.FaultPlan).
	Dropped    Hist
	Duplicated Hist
	// Lat aggregates per-operation latency observations across passing runs
	// (empty unless Config.Collect fills it): one observation per completed
	// operation, so Lat.Quantile reads off p50/p99/p99.9 tails directly.
	// LatClean and LatFaulted split Lat by fault exposure — ops that paid
	// at least one retransmission (or parked behind a partition, which
	// makes them retransmit) versus ops that ran clean — so fault-induced
	// tails are visible instead of blended.
	Lat        Hist
	LatClean   Hist
	LatFaulted Hist
	// FastReads and Fallbacks hold one observation per passing run — the
	// run's total one-phase read completions and write-back fallbacks —
	// when Config.Collect fills them (all-zero otherwise).
	FastReads Hist
	Fallbacks Hist
}

// DecidedRate is the fraction of all runs in which every correct process
// decided; runs failing Check count toward the denominator only.
func (r *Result) DecidedRate() float64 {
	if r.Runs == 0 {
		return 0
	}
	return float64(r.Decided) / float64(r.Runs)
}

// String summarizes the sweep.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d runs, decided-rate %.3f", r.Runs, r.DecidedRate())
	if r.Failures > 0 {
		fmt.Fprintf(&b, ", %d FAILED (first seed %d: %v)", r.Failures, r.FirstFailSeed, r.FirstFailErr)
	}
	fmt.Fprintf(&b, "\n  steps: %s\n  msgs:  %s", r.Steps.String(), r.Msgs.String())
	if r.Dropped.Sum > 0 || r.Duplicated.Sum > 0 {
		fmt.Fprintf(&b, "\n  drops: %s\n  dups:  %s", r.Dropped.String(), r.Duplicated.String())
	}
	if r.Lat.Count > 0 {
		fmt.Fprintf(&b, "\n  lat:   p50=%d p99=%d p99.9=%d | %s",
			r.Lat.Quantile(0.50), r.Lat.Quantile(0.99), r.Lat.Quantile(0.999), r.Lat.String())
	}
	if r.LatFaulted.Count > 0 {
		fmt.Fprintf(&b, "\n  lat/clean:   p50=%d p99=%d (%d ops)\n  lat/faulted: p50=%d p99=%d (%d ops)",
			r.LatClean.Quantile(0.50), r.LatClean.Quantile(0.99), r.LatClean.Count,
			r.LatFaulted.Quantile(0.50), r.LatFaulted.Quantile(0.99), r.LatFaulted.Count)
	}
	if r.FastReads.Sum > 0 || r.Fallbacks.Sum > 0 {
		fmt.Fprintf(&b, "\n  fastreads: %d (fallbacks %d)", r.FastReads.Sum, r.Fallbacks.Sum)
	}
	return b.String()
}

func (r *Result) observe(seed int64, res *sim.Result, correct dist.ProcSet, checkErr error) {
	r.Runs++
	if checkErr == nil {
		allDecided := true
		for set := correct; !set.IsEmpty(); {
			p := set.Min()
			set = set.Remove(p)
			if _, ok := res.Decisions[p]; !ok {
				allDecided = false
				break
			}
		}
		if allDecided {
			r.Decided++
		}
		r.Steps.Observe(res.Steps)
		r.Msgs.Observe(res.MessagesSent)
		r.Dropped.Observe(res.MessagesDropped)
		r.Duplicated.Observe(res.MessagesDuplicated)
		return
	}
	r.Failures++
	if r.FirstFailSeed < 0 || seed < r.FirstFailSeed {
		r.FirstFailSeed, r.FirstFailErr = seed, checkErr
	}
}

func (r *Result) merge(o *Result) {
	r.Runs += o.Runs
	r.Decided += o.Decided
	r.Failures += o.Failures
	if o.FirstFailSeed >= 0 && (r.FirstFailSeed < 0 || o.FirstFailSeed < r.FirstFailSeed) {
		r.FirstFailSeed, r.FirstFailErr = o.FirstFailSeed, o.FirstFailErr
	}
	r.Steps.Merge(&o.Steps)
	r.Msgs.Merge(&o.Msgs)
	r.Dropped.Merge(&o.Dropped)
	r.Duplicated.Merge(&o.Duplicated)
	r.Lat.Merge(&o.Lat)
	r.LatClean.Merge(&o.LatClean)
	r.LatFaulted.Merge(&o.LatFaulted)
	r.FastReads.Merge(&o.FastReads)
	r.Fallbacks.Merge(&o.Fallbacks)
}

// Run executes the sweep and returns the aggregate. The seed range is
// partitioned into contiguous per-worker blocks; runners are constructed
// serially and only the run loops execute in parallel, so workers may share
// anything whose reads are pure: a FailurePattern, a Σ_S oracle. Once every
// worker has finished, Run releases each runner (sim.Runner.Release), so
// the next sweep's runners reuse their buffers and, through sim.Releaser,
// their automata.
func Run(cfg Config) (*Result, error) {
	if cfg.Sim == nil {
		return nil, errors.New("sweep: Config.Sim is required")
	}
	if cfg.Seeds <= 0 {
		return nil, fmt.Errorf("sweep: Config.Seeds must be positive, got %d", cfg.Seeds)
	}
	if cfg.SeedStart < 0 || cfg.SeedStart > math.MaxInt64-cfg.Seeds {
		return nil, fmt.Errorf("sweep: seed range [%d, %d+%d) outside [0, MaxInt64]", cfg.SeedStart, cfg.SeedStart, cfg.Seeds)
	}
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("sweep: Config.Workers must not be negative, got %d", cfg.Workers)
	}
	workers := cfg.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if int64(workers) > cfg.Seeds {
		workers = int(cfg.Seeds)
	}

	type job struct {
		runner  *sim.Runner
		correct dist.ProcSet
		lo, hi  int64 // seed block [lo, hi)
		res     Result
	}
	jobs := make([]*job, workers)
	per, rem := cfg.Seeds/int64(workers), cfg.Seeds%int64(workers)
	next := cfg.SeedStart
	for w := range jobs {
		count := per
		if int64(w) < rem {
			count++
		}
		simCfg := cfg.Sim()
		runner, err := sim.NewRunner(simCfg)
		if err != nil {
			return nil, fmt.Errorf("sweep: worker %d: %w", w, err)
		}
		jobs[w] = &job{
			runner:  runner,
			correct: simCfg.Pattern.Correct(),
			lo:      next,
			hi:      next + count,
		}
		jobs[w].res.FirstFailSeed = -1
		next += count
	}

	var wg sync.WaitGroup
	for _, j := range jobs {
		wg.Add(1)
		go func(j *job) {
			defer wg.Done()
			for seed := j.lo; seed < j.hi; seed++ {
				res, err := j.runner.Reset(seed).Run()
				if err == nil && cfg.Check != nil {
					err = cfg.Check(seed, res)
				}
				j.res.observe(seed, res, j.correct, err)
				if err == nil && cfg.Collect != nil {
					cfg.Collect(res, &j.res)
				}
			}
		}(j)
	}
	wg.Wait()

	total := &Result{FirstFailSeed: -1}
	for _, j := range jobs {
		j.runner.Release()
		total.merge(&j.res)
	}
	return total, nil
}
