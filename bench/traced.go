package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// spanSeeds is how many runs of each workload the spans file records.
const spanSeeds = 2

// layerPass is the traced pass over the first quarter of a workload's
// generated workloads. For every seed it makes three runs from the public
// pieces the sweep is built from:
//   - plain: untraced and unwrapped, the reference run time;
//   - wu: untraced, every layer wrapped and timed (the layer metrics);
//   - wt: traced and wrapped the same way, so wt − wu is what recording
//     the trace costs.
//
// The wrapped run with the sweep's own trace setting (wt for the store, wu
// for consensus) is the mirror: it is verified and aggregated as the sweep
// does, and on the first pass its aggregate must equal the sweep's on the
// same seeds, or the layer numbers describe a different program.
type layerPass struct {
	tu, tt  *tracer // shared by the wrapped runners of every generated workload
	clockNs float64
	depth   []int64 // scratch: messages queued per process
	st      layerStats
	err     error // the first failed check or disagreement with the sweep

	// The generated workload being run.
	in                    instance
	plain, wu, wt, mirror *sim.Runner
	mirrorT               *tracer
}

// layerStats accumulates the traced pass.
type layerStats struct {
	passes                        int   // started; only the first runs whole
	seeds                         int64 // seeds run, probes excluded
	runs, failures, ops           int64 // mirror runs and their verified ops
	steps                         int64 // per runner; the three runners agree
	resetNs, plainNs, wuNs, wtNs  int64
	extractNs, checkNs, collectNs int64
	maxOpsPerKey                  int
	events, depthSum, depthSteps  int64
	dropped, duplicated           int64
	counts                        protoCounts
	latOps, latFaulted            int64 // first pass

	probeRuns, probeSteps    int64
	resetAllocs, plainAllocs uint64
	wuAllocs, wtAllocs       uint64

	// The first pass against the public sweep on the same seeds: the
	// mirror's steps and cost, and the sweep's cost.
	mirrorSteps, mirrorNs, sweepNs int64
	mirrorReads                    int64 // clock reads the mirror's timing added
}

// runLayers runs the traced pass over the first quarter of the pass for
// -seed seed, repeating it until seconds have passed, and records the spans
// of the first runs into log when it is non-nil.
func runLayers(w workload, seed int64, seconds float64, log *spanLog) (*layerPass, error) {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	subs, err := w.plan(seed, 0, max(w.scripts/4, 1))
	if err != nil {
		return nil, err
	}
	cfg, err := subs[0].in.config(false)
	if err != nil {
		return nil, err
	}
	lp := newLayerPass(cfg.Pattern.N())
	lp.clockNs = calibrateClock()
	if log != nil {
		if err := lp.recordSpans(subs, log); err != nil {
			return nil, err
		}
	}
	// The first pass runs whole: it is compared against the public sweep.
	// Later passes stop at the deadline.
	for first := true; first || time.Now().Before(deadline); first = false {
		for _, s := range subs {
			if !first && !time.Now().Before(deadline) {
				break
			}
			if err := lp.sub(s, first); err != nil {
				return nil, err
			}
		}
		lp.st.passes++
	}
	return lp, nil
}

func newLayerPass(n int) *layerPass {
	return &layerPass{tu: newTracer(n), tt: newTracer(n), depth: make([]int64, n+1)}
}

// use builds the three runners for a generated workload and returns what
// building the mirror cost, which the sweep pays too.
func (lp *layerPass) use(in instance) (int64, error) {
	cfg, err := in.config(false)
	if err != nil {
		return 0, err
	}
	cfg.StopWhen = in.done
	if lp.plain, err = sim.NewRunner(cfg); err != nil {
		return 0, err
	}
	var mirrorNs int64
	for _, k := range []struct {
		traced bool
		t      *tracer
		r      **sim.Runner
	}{{false, lp.tu, &lp.wu}, {true, lp.tt, &lp.wt}} {
		t0 := time.Now()
		cfg, err := in.config(k.traced)
		if err != nil {
			return 0, err
		}
		if *k.r, err = sim.NewRunner(k.t.wrap(cfg, in.done)); err != nil {
			return 0, err
		}
		if k.traced == in.traced() {
			mirrorNs = time.Since(t0).Nanoseconds()
		}
	}
	lp.in = in
	lp.mirror, lp.mirrorT = lp.wu, lp.tu
	if in.traced() {
		lp.mirror, lp.mirrorT = lp.wt, lp.tt
	}
	return mirrorNs, nil
}

// calibrateClock returns the duration of an empty time.Now span in ns: the
// median over rounds of the mean over back-to-back reads.
func calibrateClock() float64 {
	const rounds, per = 63, 256
	means := make([]float64, rounds)
	for r := range means {
		var sum int64
		for i := 0; i < per; i++ {
			t0 := time.Now()
			sum += time.Since(t0).Nanoseconds()
		}
		means[r] = float64(sum) / per
	}
	return median(means)
}

// recordSpans makes the first spanSeeds mirror runs once more with every
// call timed, keeping the spans in log, then clears the statistics.
func (lp *layerPass) recordSpans(subs []sub, log *spanLog) error {
	done := 0
	for _, s := range subs {
		if _, err := lp.use(s.in); err != nil {
			return err
		}
		t := lp.mirrorT
		t.mask, t.spans = 0, log
		for seed := s.lo; seed < s.lo+s.n && done < spanSeeds; seed++ {
			done++
			log.seed = seed
			t0 := time.Now()
			lp.mirror.Reset(seed)
			t1 := time.Now()
			res, err := lp.mirror.Run()
			t2 := time.Now()
			t.endTick(t2)
			log.add("reset", t0, t1, 0, "")
			log.add("run", t1, t2, 0, "")
			if err != nil {
				return fmt.Errorf("seed %d: %w", seed, err)
			}
			unwrap(res)
			v, err := s.in.verify(res)
			if err != nil {
				return fmt.Errorf("seed %d: %w", seed, err)
			}
			// verify timed its stages back to back after t2.
			t3 := t2.Add(time.Duration(v.extractNs))
			if v.extractNs > 0 {
				log.add("extract", t2, t3, 0, "")
			}
			log.add("check", t3, t3.Add(time.Duration(v.checkNs)), 0, "")
		}
		t.mask, t.spans, t.m = sampleMask, nil, meters{}
		if done == spanSeeds {
			break
		}
	}
	return nil
}

// sub runs one generated workload's seeds through all three runners. On
// the first pass it also runs them through the public sweep, to compare.
func (lp *layerPass) sub(s sub, first bool) error {
	buildNs, err := lp.use(s.in)
	if err != nil {
		return err
	}
	st := &lp.st
	var want *sweep.Result
	if first {
		st.mirrorNs += buildNs
		t0 := time.Now()
		res, err := s.in.sweep(s.lo, s.n)
		if err != nil {
			return err
		}
		st.sweepNs += time.Since(t0).Nanoseconds()
		want = res
	}
	var agg sweep.Result
	for seed := s.lo; seed < s.lo+s.n; seed++ {
		if err := lp.seed(seed, &agg, first); err != nil {
			return err
		}
		if st.seeds&sampleMask == 0 {
			if err := lp.probe(seed); err != nil {
				return err
			}
		}
		st.seeds++
	}
	if first {
		st.latOps += agg.Lat.Count
		st.latFaulted += agg.LatFaulted.Count
		st.mirrorSteps += agg.Steps.Sum
		if lp.err == nil {
			lp.err = sameAggregate(s, want, &agg)
		}
	}
	return nil
}

// seed makes the three timed runs of one seed.
func (lp *layerPass) seed(seed int64, agg *sweep.Result, first bool) error {
	st := &lp.st
	t0 := time.Now()
	lp.plain.Reset(seed)
	t1 := time.Now()
	ref, err := lp.plain.Run()
	t2 := time.Now()
	if err != nil {
		return fmt.Errorf("seed %d: %w", seed, err)
	}
	st.resetNs += t1.Sub(t0).Nanoseconds()
	st.plainNs += t2.Sub(t1).Nanoseconds()
	st.steps += ref.Steps

	reads := lp.mirrorT.m.clockReads()
	for _, r := range []*sim.Runner{lp.wu, lp.wt} {
		t0 := time.Now()
		r.Reset(seed)
		t1 := time.Now()
		res, err := r.Run()
		t2 := time.Now()
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		lp.tracerOf(r).endTick(t2)
		if r == lp.wu {
			st.wuNs += t2.Sub(t1).Nanoseconds()
		} else {
			st.wtNs += t2.Sub(t1).Nanoseconds()
			lp.traceStats(res.Trace)
		}
		unwrap(res)
		if res.Steps != ref.Steps || res.MessagesSent != ref.MessagesSent {
			return fmt.Errorf("seed %d: the wrapped run took %d steps and sent %d messages, the unwrapped one %d and %d",
				seed, res.Steps, res.MessagesSent, ref.Steps, ref.MessagesSent)
		}
		if r != lp.mirror {
			continue
		}
		ns := lp.verifyAndCollect(seed, res, agg)
		if first {
			st.mirrorNs += t2.Sub(t0).Nanoseconds() + ns
			st.mirrorReads += lp.mirrorT.m.clockReads() - reads
		}
	}
	return nil
}

// tracerOf returns the tracer wrapping a wrapped runner's layers.
func (lp *layerPass) tracerOf(r *sim.Runner) *tracer {
	if r == lp.wu {
		return lp.tu
	}
	return lp.tt
}

// verifyAndCollect checks one mirror run and folds it into agg as the
// sweep does, returning what that cost.
func (lp *layerPass) verifyAndCollect(seed int64, res *sim.Result, agg *sweep.Result) int64 {
	st := &lp.st
	st.runs++
	t0 := time.Now()
	v, err := lp.in.verify(res)
	t1 := time.Now()
	st.extractNs += v.extractNs
	st.checkNs += v.checkNs
	st.maxOpsPerKey = max(st.maxOpsPerKey, v.maxOpsPerKey)
	if err != nil {
		st.failures++
		if lp.err == nil {
			lp.err = fmt.Errorf("seed %d: %w", seed, err)
		}
		return t1.Sub(t0).Nanoseconds()
	}
	before := lp.in.ops(agg)
	lp.in.collect(res, agg, &st.counts)
	t2 := time.Now()
	st.collectNs += t2.Sub(t1).Nanoseconds()
	st.ops += lp.in.ops(agg) - before
	st.dropped += res.MessagesDropped
	st.duplicated += res.MessagesDuplicated
	return t2.Sub(t0).Nanoseconds()
}

// traceStats counts a traced run's events and the messages queued for each
// stepping process when it steps.
func (lp *layerPass) traceStats(tr *trace.Trace) {
	st := &lp.st
	clear(lp.depth)
	for _, e := range tr.Events() {
		switch e.Kind {
		case trace.SendKind:
			lp.depth[e.To]++
		case trace.DropKind:
			lp.depth[e.To]--
		case trace.RecoverKind:
			lp.depth[e.P] = 0 // recovery wipes the inbox
		case trace.StepKind:
			st.depthSum += lp.depth[e.P]
			st.depthSteps++
			if e.Delivered {
				lp.depth[e.P]--
			}
		}
	}
	st.events += int64(tr.Len())
}

// probe reruns one seed on the warmed-up runners with the allocator's
// counters read around Reset and Run. ReadMemStats stops the world, so
// probe runs are neither timed nor counted.
func (lp *layerPass) probe(seed int64) error {
	st := &lp.st
	mu, mt := lp.tu.m, lp.tt.m
	defer func() { lp.tu.m, lp.tt.m = mu, mt }()
	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	lp.plain.Reset(seed)
	runtime.ReadMemStats(&m1)
	res, err := lp.plain.Run()
	runtime.ReadMemStats(&m2)
	if err != nil {
		return err
	}
	st.probeRuns++
	st.probeSteps += res.Steps
	st.resetAllocs += m1.Mallocs - m0.Mallocs
	st.plainAllocs += m2.Mallocs - m1.Mallocs
	for _, r := range []*sim.Runner{lp.wu, lp.wt} {
		r.Reset(seed)
		runtime.ReadMemStats(&m0)
		res, err := r.Run()
		runtime.ReadMemStats(&m1)
		if err != nil {
			return err
		}
		lp.tracerOf(r).endTick(time.Now())
		unwrap(res)
		if r == lp.wu {
			st.wuAllocs += m1.Mallocs - m0.Mallocs
		} else {
			st.wtAllocs += m1.Mallocs - m0.Mallocs
		}
	}
	return nil
}

// sameAggregate reports how the traced pass's aggregate differs from the
// public sweep's on the same seeds, or nil when they agree.
func sameAggregate(s sub, want, got *sweep.Result) error {
	switch {
	case want.Failures > 0:
		return fmt.Errorf("the sweep failed %d runs (first seed %d: %v)", want.Failures, want.FirstFailSeed, want.FirstFailErr)
	case want.Steps != got.Steps, want.Msgs != got.Msgs:
		return fmt.Errorf("seeds [%d, %d): the traced pass saw steps %v and msgs %v, the sweep steps %v and msgs %v",
			s.lo, s.lo+s.n, got.Steps.String(), got.Msgs.String(), want.Steps.String(), want.Msgs.String())
	case *s.in.latency(want) != *s.in.latency(got):
		return fmt.Errorf("seeds [%d, %d): the traced pass saw latency %v, the sweep %v",
			s.lo, s.lo+s.n, s.in.latency(got).String(), s.in.latency(want).String())
	}
	return nil
}

// layerMetrics turns the traced pass into the per-layer metrics. Per-call
// times are the clock-corrected means of the timed calls. Timing a call
// alone stops it overlapping its neighbours, which makes it read longer
// than its part of an untimed run; so run-time shares come from the timed
// ticks, where layers and the runner's own work are measured alike, and
// the runner's self time is its share of the plain run.
func (lp *layerPass) layerMetrics() []metric {
	st, m, c := &lp.st, &lp.tu.m, lp.clockNs
	steps := float64(st.steps)
	ops := float64(max(st.ops, 1))
	verified := float64(max(st.runs-st.failures, 1))
	runNs := float64(st.plainNs) / steps
	self, total := m.tickWork(c)
	share := func(w float64) float64 { return w / total }

	var fastRatio, faultedFrac, extractFrac float64
	if reads := st.counts.fastReads + st.counts.fallbacks; reads > 0 {
		fastRatio = float64(st.counts.fastReads) / float64(reads)
	}
	if st.latOps > 0 {
		faultedFrac = float64(st.latFaulted) / float64(st.latOps)
	}
	if v := st.extractNs + st.checkNs; v > 0 {
		extractFrac = float64(st.extractNs) / float64(v)
	}
	probeSteps := float64(max(st.probeSteps, 1))
	overhead := (float64(st.mirrorNs) - c*float64(st.mirrorReads) - float64(st.sweepNs)) / float64(max(st.mirrorSteps, 1))

	return []metric{
		{"sim.run.ns_per_step", "ns", runNs},
		{"sim.runner.self_ns_per_step", "ns", share(self) * runNs},
		{"sim.runner.self_share", "ratio", share(self)},
		{"sim.scheduler.ns_per_call", "ns", m.sched.perCall(c)},
		{"sim.scheduler.calls_per_step", "count", float64(m.sched.calls) / steps},
		{"sim.scheduler.share", "ratio", share(m.sched.work(c))},
		{"sim.inbox.pending_ns_per_call", "ns", m.pending.perCall(c)},
		{"sim.inbox.pending_share", "ratio", share(m.pending.work(c))},
		{"sim.inbox.depth_mean", "count", float64(st.depthSum) / float64(max(st.depthSteps, 1))},
		{"sim.reset.us_per_run", "us", float64(st.resetNs) / 1e3 / float64(max(st.seeds, 1))},
		{"sim.reset.allocs_per_run", "count", float64(st.resetAllocs) / float64(max(st.probeRuns, 1))},
		{"sim.run.allocs_per_step", "count", float64(st.plainAllocs) / probeSteps},
		{"sim.drops_per_op", "count", float64(st.dropped) / ops},
		{"sim.dups_per_op", "count", float64(st.duplicated) / ops},
		{"fd.history.ns_per_call", "ns", m.history.perCall(c)},
		{"fd.history.calls_per_step", "count", float64(m.history.calls) / steps},
		{"fd.history.share", "ratio", share(m.history.work(c))},
		{"automaton.step.deliver.ns_per_call", "ns", m.deliver.perCall(c)},
		{"automaton.step.null.ns_per_call", "ns", m.null.perCall(c)},
		{"automaton.step.share", "ratio", share(m.deliver.work(c) + m.null.work(c))},
		{"stop.ns_per_call", "ns", m.stop.perCall(c)},
		{"stop.share", "ratio", share(m.stop.work(c))},
		{"check.ns_per_op", "ns", float64(st.extractNs+st.checkNs) / ops},
		{"check.extract_frac", "ratio", extractFrac},
		{"register.check.max_ops_per_key", "count", float64(st.maxOpsPerKey)},
		{"register.fastread_ratio", "ratio", fastRatio},
		{"register.retransmits_per_op", "count", float64(st.counts.retransmits) / ops},
		{"register.faulted_op_frac", "ratio", faultedFrac},
		{"register.replica_bytes_per_node", "B", float64(st.counts.replicaBytes) / verified / float64(len(lp.depth)-1)},
		{"trace.record.ns_per_step", "ns", float64(st.wtNs-st.wuNs) / steps},
		{"trace.events_per_step", "count", float64(st.events) / steps},
		{"trace.allocs_per_step", "count", (float64(st.wtAllocs) - float64(st.wuAllocs)) / probeSteps},
		{"sweep.collect.ns_per_run", "ns", float64(st.collectNs) / verified},
		{"bench.clock_ns", "ns", c},
		{"bench.trace_overhead_ns_per_step", "ns", overhead},
	}
}
