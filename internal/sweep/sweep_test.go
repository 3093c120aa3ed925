package sweep

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/sim"
)

// fig2Config is the Figure 2 task on n correct processes: every worker
// shares its one SimConfig, and so one σ oracle and one program.
func fig2Config(n int) (func() sim.Config, core.TaskConfig) {
	task := core.TaskConfig{Task: core.TaskFig2, Pattern: dist.NewFailurePattern(n)}
	sc, err := task.SimConfig()
	if err != nil {
		panic(err)
	}
	return func() sim.Config { return sc }, task
}

func TestSweepAggregates(t *testing.T) {
	const n, seeds = 4, 25
	mkSim, task := fig2Config(n)
	res, err := Run(Config{Sim: mkSim, Seeds: seeds, Check: task.Check})
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs != seeds {
		t.Fatalf("Runs=%d, want %d", res.Runs, seeds)
	}
	if res.Failures != 0 || res.FirstFailSeed != -1 {
		t.Fatalf("unexpected failures: %+v", res)
	}
	if res.DecidedRate() != 1.0 {
		t.Fatalf("decided-rate %.3f, want 1.0 (Figure 2 with StopWhenDecided)", res.DecidedRate())
	}
	if res.Steps.Count != seeds || res.Steps.Min <= 0 || res.Msgs.Count != seeds {
		t.Fatalf("histograms not filled: steps=%s msgs=%s", res.Steps.String(), res.Msgs.String())
	}
	var bucketed int64
	for _, c := range res.Steps.Buckets {
		bucketed += c
	}
	if bucketed != seeds {
		t.Fatalf("steps histogram buckets sum to %d, want %d", bucketed, seeds)
	}
}

// TestSweepWorkerDeterminism asserts the engine guarantee: the aggregate is
// bit-identical for every worker count and partition.
func TestSweepWorkerDeterminism(t *testing.T) {
	const n, seeds = 4, 24
	mkSim, _ := fig2Config(n)
	check := func(seed int64, r *sim.Result) error {
		// A seed-dependent verdict makes FirstFailSeed selection visible.
		if seed%7 == 3 {
			return fmt.Errorf("synthetic failure at seed %d", seed)
		}
		return nil
	}
	base, err := Run(Config{Sim: mkSim, SeedStart: 1, Seeds: seeds, Workers: 1, Check: check})
	if err != nil {
		t.Fatal(err)
	}
	if base.FirstFailSeed != 3 || base.Failures != 4 {
		t.Fatalf("expected synthetic failures at 3,10,17,24: %+v", base)
	}
	for _, w := range []int{2, 5, 8, 24} {
		got, err := Run(Config{Sim: mkSim, SeedStart: 1, Seeds: seeds, Workers: w, Check: check})
		if err != nil {
			t.Fatal(err)
		}
		if got.Runs != base.Runs || got.Decided != base.Decided ||
			got.Failures != base.Failures || got.FirstFailSeed != base.FirstFailSeed ||
			got.Steps != base.Steps || got.Msgs != base.Msgs ||
			fmt.Sprint(got.FirstFailErr) != fmt.Sprint(base.FirstFailErr) {
			t.Fatalf("workers=%d diverged:\n  1: %+v\n  %d: %+v", w, base, w, got)
		}
	}
}

// TestPooledInboxSetsConcurrentSweeps runs sweeps of two system sizes at
// once, two workers each. Every sweep releases its runners, and the next
// runners take their buffer sets, resized when the sizes differ; under
// -race it fails on a set two runners share. Every sweep must match its
// size's lone run.
func TestPooledInboxSetsConcurrentSweeps(t *testing.T) {
	sizes := []int{3, 6}
	cfgs := make([]Config, len(sizes))
	want := make([]*Result, len(sizes))
	for i, n := range sizes {
		mkSim, task := fig2Config(n)
		cfgs[i] = Config{Sim: mkSim, Seeds: 40, Workers: 2, Check: task.Check}
		var err error
		if want[i], err = Run(cfgs[i]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			i := g % len(cfgs)
			for range 3 {
				got, err := Run(cfgs[i])
				if err != nil {
					t.Error(err)
					return
				}
				if got.Runs != want[i].Runs || got.Decided != want[i].Decided || got.Failures != 0 ||
					got.Steps != want[i].Steps || got.Msgs != want[i].Msgs {
					t.Errorf("n=%d, concurrent sweep diverged:\n  %+v\nwant:\n  %+v", sizes[i], got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestSweepConfigValidation(t *testing.T) {
	if _, err := Run(Config{Seeds: 5}); err == nil {
		t.Fatal("nil Sim must be rejected")
	}
	mkSim, _ := fig2Config(3)
	if _, err := Run(Config{Sim: mkSim, Seeds: 0}); err == nil {
		t.Fatal("zero Seeds must be rejected")
	}
}

// TestSweepRejectsNegativeWorkers: a negative pool size is an error naming
// the field, not a silent GOMAXPROCS.
func TestSweepRejectsNegativeWorkers(t *testing.T) {
	mkSim, _ := fig2Config(3)
	_, err := Run(Config{Sim: mkSim, Seeds: 5, Workers: -1})
	if err == nil || !strings.Contains(err.Error(), "Workers") {
		t.Fatalf("Workers: -1 gave %v, want an error naming Workers", err)
	}
}

// TestSweepRejectsSeedRangeOutsideInt64: a negative first seed would collide
// with FirstFailSeed's -1 "none", and an overflowing end would silently run
// fewer seeds; both are errors naming the seed range.
func TestSweepRejectsSeedRangeOutsideInt64(t *testing.T) {
	mkSim, _ := fig2Config(3)
	for _, tc := range []struct{ start, seeds int64 }{
		{-1, 2},
		{-10, 10},
		{math.MaxInt64, 2},
		{math.MaxInt64 - 1, 2},
	} {
		_, err := Run(Config{Sim: mkSim, SeedStart: tc.start, Seeds: tc.seeds})
		if err == nil || !strings.Contains(err.Error(), "seed range") {
			t.Errorf("SeedStart %d, Seeds %d: got %v, want an error naming the seed range", tc.start, tc.seeds, err)
		}
	}
	res, err := Run(Config{Sim: mkSim, SeedStart: math.MaxInt64 - 2, Seeds: 2})
	if err != nil || res.Runs != 2 {
		t.Fatalf("the last seeds below MaxInt64: %v, %v", res, err)
	}
}

func TestHistMergeEdgeCases(t *testing.T) {
	// Empty into empty: still empty.
	var h, empty Hist
	h.Merge(&empty)
	if h.Count != 0 || h.String() != "empty" {
		t.Fatalf("empty merge changed the histogram: %+v", h)
	}

	// Merging an empty histogram into a filled one must not disturb
	// min/max (an empty Hist's zero-valued Min would otherwise win).
	h.Observe(5)
	h.Observe(9)
	h.Merge(&empty)
	if h.Count != 2 || h.Min != 5 || h.Max != 9 || h.Sum != 14 {
		t.Fatalf("merging empty disturbed the aggregate: %+v", h)
	}

	// Merging into an empty histogram adopts the source's min, not the
	// destination's zero value.
	var adopt Hist
	adopt.Merge(&h)
	if adopt.Count != 2 || adopt.Min != 5 || adopt.Max != 9 || adopt.Sum != 14 {
		t.Fatalf("merge into empty lost the aggregate: %+v", adopt)
	}

	// Merging two filled histograms picks the global extremes.
	var lo Hist
	lo.Observe(1)
	lo.Merge(&h)
	if lo.Count != 3 || lo.Min != 1 || lo.Max != 9 || lo.Sum != 15 {
		t.Fatalf("merge of filled histograms wrong: %+v", lo)
	}
	var bucketed int64
	for _, c := range lo.Buckets {
		bucketed += c
	}
	if bucketed != 3 {
		t.Fatalf("buckets sum to %d after merge, want 3", bucketed)
	}
}

func TestHistTopBucketClampAndNegatives(t *testing.T) {
	var h Hist
	h.Observe(1 << 40)
	h.Observe(math.MaxInt64)
	top := len(h.Buckets) - 1
	if h.Buckets[top] != 2 {
		t.Fatalf("values beyond the bucket range must clamp into the top bucket: %+v", h.Buckets)
	}
	if h.Min != 1<<40 || h.Max != math.MaxInt64 {
		t.Fatalf("min/max must keep the exact values despite clamping: min=%d max=%d", h.Min, h.Max)
	}
	if s := h.String(); !strings.Contains(s, ":2") {
		t.Fatalf("String must render the clamped top bucket: %q", s)
	}
	// Negative observations clamp to zero and land in bucket 0.
	h.Observe(-7)
	if h.Buckets[0] != 1 || h.Min != 0 || h.Count != 3 {
		t.Fatalf("negative observation mishandled: %+v", h)
	}
}

func TestHistObserve(t *testing.T) {
	var h Hist
	for _, v := range []int64{0, 1, 2, 3, 4, 1000} {
		h.Observe(v)
	}
	if h.Count != 6 || h.Min != 0 || h.Max != 1000 || h.Sum != 1010 {
		t.Fatalf("bad summary: %+v", h)
	}
	// 0 → bucket 0; 1 → bucket 1; 2,3 → bucket 2; 4 → bucket 3; 1000 → bucket 10.
	want := map[int]int64{0: 1, 1: 1, 2: 2, 3: 1, 10: 1}
	for i, c := range h.Buckets {
		if c != want[i] {
			t.Fatalf("bucket %d = %d, want %d (%s)", i, c, want[i], h.String())
		}
	}
}

func TestHistQuantile(t *testing.T) {
	// Empty histogram: every quantile is 0.
	var empty Hist
	for _, q := range []float64{-1, 0, 0.5, 1, 2} {
		if v := empty.Quantile(q); v != 0 {
			t.Fatalf("empty.Quantile(%v) = %d, want 0", q, v)
		}
	}

	// All observations zero: the all-zeros bucket interpolates to 0.
	var zeros Hist
	for i := 0; i < 5; i++ {
		zeros.Observe(0)
	}
	for _, q := range []float64{0, 0.5, 0.999, 1} {
		if v := zeros.Quantile(q); v != 0 {
			t.Fatalf("zeros.Quantile(%v) = %d, want 0", q, v)
		}
	}

	// Single observation: quantile == Min == Max for every q, including
	// q outside [0,1] (clamped, not rejected).
	var one Hist
	one.Observe(37)
	for _, q := range []float64{-0.5, 0, 0.25, 0.99, 1, 7} {
		if v := one.Quantile(q); v != 37 {
			t.Fatalf("one.Quantile(%v) = %d, want 37", q, v)
		}
	}

	// Top-bucket clamp: values at and beyond the last bucket's lower bound
	// all land in it, but quantiles must stay inside [Min, Max] instead of
	// extrapolating across the clamped 2^23..2^63 range.
	var top Hist
	top.Observe(1 << 23)
	top.Observe(1 << 40)
	if v := top.Quantile(0); v != 1<<23 {
		t.Fatalf("top.Quantile(0) = %d, want %d", v, int64(1)<<23)
	}
	if v := top.Quantile(1); v != 1<<40 {
		t.Fatalf("top.Quantile(1) = %d, want %d", v, int64(1)<<40)
	}
	for _, q := range []float64{0.25, 0.5, 0.9} {
		if v := top.Quantile(q); v < 1<<23 || v > 1<<40 {
			t.Fatalf("top.Quantile(%v) = %d escapes [Min, Max]", q, v)
		}
	}

	// Uniform 1..100: interpolation lands the median on the nose, extremes
	// hit Min and Max exactly, and quantiles are monotone in q.
	var u Hist
	for v := int64(1); v <= 100; v++ {
		u.Observe(v)
	}
	if v := u.Quantile(0.5); v != 50 {
		t.Fatalf("uniform p50 = %d, want 50", v)
	}
	if lo, hi := u.Quantile(0), u.Quantile(1); lo != 1 || hi != 100 {
		t.Fatalf("uniform extremes = (%d, %d), want (1, 100)", lo, hi)
	}
	prev := int64(-1)
	for q := 0.0; q <= 1.0; q += 0.01 {
		v := u.Quantile(q)
		if v < prev {
			t.Fatalf("Quantile not monotone: Quantile(%v) = %d < %d", q, v, prev)
		}
		prev = v
	}
}

func TestHistStringTopBucket(t *testing.T) {
	var h Hist
	h.Observe(3)
	h.Observe(1 << 40) // clamps into the final bucket (lower bound 2^22)
	s := h.String()
	if !strings.Contains(s, "[4194304,inf):1") {
		t.Fatalf("final bucket must render as [lo,inf): %q", s)
	}
	if !strings.Contains(s, "[2,4):1") {
		t.Fatalf("non-final buckets must keep their [lo,hi) ranges: %q", s)
	}
}
