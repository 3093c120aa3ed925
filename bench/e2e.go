package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"repro/internal/sim"
	"repro/internal/sweep"
)

// setupsPerBlock is how many times the end-to-end pass sets a workload up
// before each timed block; setup_s is the median. Spreading the set-ups
// over the run keeps a slow spell of the host from owning all of them.
const setupsPerBlock = 8

// rep is one timed block of sub-sweeps.
type rep struct {
	res   []*sweep.Result // one per sub-sweep
	ops   int64
	ns    int64
	bytes uint64 // heap bytes allocated during the block
}

// e2eRun is the end-to-end pass over one workload.
type e2eRun struct {
	subs    []sub
	first   []rep // the first pass, one rep per block
	timed   []rep // every rep, the first pass included
	setupNs []float64
	err     error // a failed run or a block that did not repeat exactly
}

// runEndToEnd generates the pass's workloads, then times the public sweep
// on them block by block, cycling through the reps blocks until seconds
// have passed, and times set-ups between the blocks. Counts come from the
// first pass; every later rep must repeat its block's counts exactly.
func runEndToEnd(w workload, seed int64, seconds float64) (*e2eRun, error) {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	run := &e2eRun{}
	subs, err := w.plan(seed, 0, w.scripts)
	if err != nil {
		return nil, err
	}
	run.subs = subs
	// Warm up heap and caches before timing.
	if _, err := subs[0].in.sweep(subs[0].lo, subs[0].n); err != nil {
		return nil, err
	}
	per := len(subs) / reps
	for i := 0; i < reps || time.Now().Before(deadline); i++ {
		for k := 0; k < setupsPerBlock; k++ {
			ns, err := setupOnce(w, seed)
			if err != nil {
				return nil, err
			}
			run.setupNs = append(run.setupNs, ns)
		}
		b := i % reps
		r, err := timeRep(subs[b*per : (b+1)*per])
		if err != nil {
			return nil, err
		}
		if i < reps {
			run.first = append(run.first, r)
			for _, res := range r.res {
				if res.Failures > 0 && run.err == nil {
					run.err = fmt.Errorf("%d of %d runs failed verification (first seed %d: %v)",
						res.Failures, res.Runs, res.FirstFailSeed, res.FirstFailErr)
				}
			}
		} else if run.err == nil {
			for k, res := range r.res {
				if f, s := run.first[b].res[k], subs[b*per+k]; !sameCounts(f, res) {
					run.err = fmt.Errorf("seeds [%d, %d) did not repeat: %v vs %v", s.lo, s.lo+s.n, res, f)
				}
			}
		}
		run.timed = append(run.timed, r)
	}
	return run, nil
}

// setupOnce times what a user pays before the first run of a generated
// workload: generating it, building the program and history, the runner
// and its first Reset.
func setupOnce(w workload, seed int64) (float64, error) {
	runtime.GC()
	t0 := time.Now()
	subs, err := w.plan(seed, 0, 1)
	if err != nil {
		return 0, err
	}
	in := subs[0].in
	cfg, err := in.config(in.traced())
	if err != nil {
		return 0, err
	}
	cfg.StopWhen = in.done
	r, err := sim.NewRunner(cfg)
	if err != nil {
		return 0, err
	}
	r.Reset(subs[0].lo)
	return float64(time.Since(t0).Nanoseconds()), nil
}

func timeRep(subs []sub) (rep, error) {
	var m0, m1 runtime.MemStats
	r := rep{res: make([]*sweep.Result, len(subs))}
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i, s := range subs {
		res, err := s.in.sweep(s.lo, s.n)
		if err != nil {
			return rep{}, err
		}
		r.res[i] = res
	}
	r.ns = time.Since(t0).Nanoseconds()
	runtime.ReadMemStats(&m1)
	r.bytes = m1.TotalAlloc - m0.TotalAlloc
	for i, s := range subs {
		r.ops += s.in.ops(r.res[i])
	}
	return r, nil
}

// sameCounts reports whether two sweeps of the same seeds agree on every
// schedule-determined count.
func sameCounts(a, b *sweep.Result) bool {
	return a.Runs == b.Runs && a.Failures == b.Failures && a.Steps == b.Steps && a.Msgs == b.Msgs && a.Lat == b.Lat
}

// e2eMetrics turns the pass into the end-to-end metrics. The quartiles of
// the blocks' throughput go to the report's details.
func (run *e2eRun) e2eMetrics() ([]metric, map[string]any) {
	var ops, runs, failures, steps, msgs int64
	var bytes uint64
	var lat sweep.Hist
	per := len(run.subs) / reps
	for b, r := range run.first {
		ops += r.ops
		bytes += r.bytes
		for k, res := range r.res {
			runs += res.Runs
			failures += res.Failures
			steps += res.Steps.Sum
			msgs += res.Msgs.Sum
			lat.Merge(run.subs[b*per+k].in.latency(res))
		}
	}
	// Throughput is the pass's ops over the sum of each block's fastest
	// timing: a noisy neighbour can only slow a block down, and every block
	// counts once whatever its mix of generated workloads.
	rates := make([]float64, len(run.timed))
	best := make([]int64, reps)
	for i, r := range run.timed {
		rates[i] = float64(r.ops) / (float64(r.ns) / 1e9)
		if b := i % reps; best[b] == 0 || r.ns < best[b] {
			best[b] = r.ns
		}
	}
	var bestNs int64
	for _, ns := range best {
		bestNs += ns
	}
	q1, q2, q3 := quartiles(rates)
	fops := float64(max(ops, 1))
	metrics := []metric{
		{"ops_per_s", "1/s", fops / (float64(bestNs) / 1e9)},
		{"msgs_per_op", "count", float64(msgs) / fops},
		{"steps_per_op", "count", float64(steps) / fops},
		{"lat_p50_steps", "steps", quantile(&lat, 0.50)},
		{"lat_p99_steps", "steps", quantile(&lat, 0.99)},
		{"lat_p999_steps", "steps", quantile(&lat, 0.999)},
		{"alloc_bytes_per_op", "B", float64(bytes) / fops},
		{"verified_run_frac", "ratio", float64(runs-failures) / float64(max(runs, 1))},
		{"setup_s", "s", median(run.setupNs) / 1e9},
	}
	details := map[string]any{
		"block_ops_per_s_quartiles": []float64{q1, q2, q3},
		"timed_reps":                len(run.timed),
		"runs":                      runs,
		"verified_ops":              ops,
		"lat_samples":               lat.Count,
		"ns_per_step":               medianNsPerStep(run.timed),
	}
	return metrics, details
}

func medianNsPerStep(reps []rep) float64 {
	v := make([]float64, len(reps))
	for i, r := range reps {
		var steps int64
		for _, res := range r.res {
			steps += res.Steps.Sum
		}
		v[i] = float64(r.ns) / float64(max(steps, 1))
	}
	return median(v)
}

// quantile is sweep.Hist.Quantile without its rounding down to a whole
// step: the same interpolation inside the power-of-two bucket, so a small
// shift in the distribution moves the value a little instead of a whole
// step or not at all.
func quantile(h *sweep.Hist, q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	if q >= 1 {
		return float64(h.Max)
	}
	rank := q * float64(h.Count-1)
	cum := 0.0
	for i, c := range h.Buckets {
		if c == 0 {
			continue
		}
		fc := float64(c)
		if rank >= cum+fc {
			cum += fc
			continue
		}
		lo, hi := 0.0, math.Ldexp(1, i)
		if i > 0 {
			lo = math.Ldexp(1, i-1)
		}
		if i == len(h.Buckets)-1 || hi > float64(h.Max) {
			hi = float64(h.Max + 1)
		}
		lo = math.Max(lo, float64(h.Min))
		v := lo + (rank-cum)/fc*(hi-lo)
		return math.Min(math.Max(v, float64(h.Min)), float64(h.Max))
	}
	return float64(h.Max)
}

func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}

// quartiles returns the three quartiles of v by the method Python's
// statistics.quantiles(v, n=4) uses (exclusive).
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(j int) float64 {
		// Position j/4 · (n+1) in 1-based ranks, clamped to the sample.
		m := float64(len(s)+1) * float64(j) / 4
		k := int(m)
		if k < 1 {
			return s[0]
		}
		if k >= len(s) {
			return s[len(s)-1]
		}
		return s[k-1] + (m-float64(k))*(s[k]-s[k-1])
	}
	return at(1), at(2), at(3)
}
