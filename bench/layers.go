package main

import (
	"reflect"
	"time"

	"repro/internal/dist"
	"repro/internal/sim"
)

// sampleMask times one tick in sampleMask+1: on a timed tick every layer
// call is timed, on the others calls are only counted. An empty time.Now
// span costs about as much as a scheduler call, so timing every tick would
// mostly measure the clock.
const sampleMask = 15

// meter is one layer's span statistics: calls counts every call, sampled
// the timed ones and rawNs their summed durations. childNs and children
// are the durations and count of timed spans nested inside this layer's
// timed spans (the inbox scan inside the scheduler, the failure-detector
// query inside an automaton step).
type meter struct {
	calls, sampled, rawNs int64
	childNs, children     int64
}

func (m *meter) add(t0, t1 time.Time) int64 {
	d := t1.Sub(t0).Nanoseconds()
	m.sampled++
	m.rawNs += d
	return d
}

// work is the layer's own timed work with the clock removed: a timed span
// overstates its work by one clock read, and each span nested in it adds
// its own duration plus two more reads.
func (m *meter) work(clockNs float64) float64 {
	return float64(m.rawNs-m.childNs) - clockNs*float64(m.sampled+m.children)
}

// perCall is the mean own work of one timed call; 0 when none was timed.
func (m *meter) perCall(clockNs float64) float64 {
	if m.sampled == 0 {
		return 0
	}
	return m.work(clockNs) / float64(m.sampled)
}

// meters are one runner's layer statistics. tick spans a timed tick, from
// its scheduler call to the next tick's (or the end of the run): what the
// layer spans inside it leave over is the runner's own work.
type meters struct {
	sched, pending, history, stop, deliver, null, tick meter
}

// spans counts the timed layer spans. Each costs the run two clock reads.
func (m *meters) spans() int64 {
	return m.sched.sampled + m.pending.sampled + m.history.sampled + m.stop.sampled + m.deliver.sampled + m.null.sampled
}

// clockReads counts the clock reads timing added to the runs: two per
// span and about one to close each timed tick.
func (m *meters) clockReads() int64 { return 2*m.spans() + m.tick.sampled }

// tickWork is the work of the timed ticks, clock removed, and the part of
// it no layer span covers: the runner's own work.
func (m *meters) tickWork(clockNs float64) (self, total float64) {
	total = float64(m.tick.rawNs) - 2*clockNs*float64(m.spans())
	self = total
	for _, l := range []*meter{&m.sched, &m.pending, &m.history, &m.stop, &m.deliver, &m.null} {
		self -= l.work(clockNs)
	}
	return self, total
}

// tracer times the calls one runner makes into its layers. It is installed
// by wrapping the runner's scheduler, failure-detector history, automata
// and stop condition; the wrappers forward every call unchanged.
type tracer struct {
	m         meters
	mask      int64 // sampleMask, or 0 while recording spans
	timed     bool  // the current tick is timed
	tickStart time.Time
	curStep   *meter // the automaton meter of the step being timed, else nil
	automata  []meteredAutomaton
	spans     *spanLog // non-nil while recording spans
}

func newTracer(n int) *tracer {
	t := &tracer{mask: sampleMask, automata: make([]meteredAutomaton, n)}
	for i := range t.automata {
		t.automata[i].t = t
	}
	return t
}

// endTick closes a timed tick at now.
func (t *tracer) endTick(now time.Time) {
	if t.timed {
		t.m.tick.add(t.tickStart, now)
		t.timed = false
	}
}

// wrap returns cfg with every layer the runner calls wrapped by t, and the
// stop condition done installed and timed as the stop layer.
func (t *tracer) wrap(cfg sim.Config, done func(*sim.Snapshot) bool) sim.Config {
	sched := cfg.Scheduler
	if sched == nil {
		sched = sim.NewRandomScheduler(1) // the runner's default; Reset reseeds it
	}
	cfg.Scheduler = &meteredScheduler{inner: sched, t: t}
	cfg.History = &meteredHistory{inner: cfg.History, t: t}
	prog := cfg.Program
	// The wrappers are reused across runs so wrapping allocates nothing; a
	// result's automata must be unwrapped before the next Reset.
	cfg.Program = func(p dist.ProcID, n int) sim.Automaton {
		a := &t.automata[p-1]
		a.inner, a.p = prog(p, n), p
		return a
	}
	cfg.StopWhen = func(sn *sim.Snapshot) bool {
		t.m.stop.calls++
		if !t.timed {
			return done(sn)
		}
		t0 := time.Now()
		ok := done(sn)
		t1 := time.Now()
		t.m.stop.add(t0, t1)
		t.spans.add("stop", t0, t1, 0, "")
		return ok
	}
	return cfg
}

// meteredScheduler times the scheduler and starts timed ticks. On a timed
// tick the scheduler sees a copy of the runner's view whose Pending
// callback is timed too, so the inbox scan behind it is split out of the
// scheduler's own time.
type meteredScheduler struct {
	inner   sim.Scheduler
	t       *tracer
	view    sim.View
	pending func(dist.ProcID) int // the runner's own callback
}

func (s *meteredScheduler) Reseed(seed int64) {
	if rs, ok := s.inner.(sim.Reseeder); ok {
		rs.Reseed(seed)
	}
}

func (s *meteredScheduler) Next(v *sim.View) (sim.Choice, bool) {
	t := s.t
	t.m.sched.calls++
	if t.m.sched.calls&t.mask != 0 {
		if t.timed {
			t.endTick(time.Now())
		}
		return s.inner.Next(v)
	}
	s.view = *v
	s.pending = v.Pending
	s.view.Pending = s.timedPending
	t0 := time.Now()
	t.endTick(t0)
	t.timed, t.tickStart = true, t0
	c, ok := s.inner.Next(&s.view)
	t1 := time.Now()
	t.m.sched.add(t0, t1)
	t.spans.add("scheduler", t0, t1, c.Proc, "")
	return c, ok
}

func (s *meteredScheduler) timedPending(p dist.ProcID) int {
	t := s.t
	t.m.pending.calls++
	t0 := time.Now()
	k := s.pending(p)
	t1 := time.Now()
	t.m.sched.childNs += t.m.pending.add(t0, t1)
	t.m.sched.children++
	t.spans.add("inbox.pending", t0, t1, p, "")
	return k
}

// meteredHistory counts failure-detector queries and times the ones made
// inside a timed automaton step.
type meteredHistory struct {
	inner sim.History
	t     *tracer
}

func (h *meteredHistory) Output(p dist.ProcID, now dist.Time) any {
	t := h.t
	t.m.history.calls++
	if t.curStep == nil {
		return h.inner.Output(p, now)
	}
	t0 := time.Now()
	out := h.inner.Output(p, now)
	t1 := time.Now()
	t.curStep.childNs += t.m.history.add(t0, t1)
	t.curStep.children++
	t.spans.add("history", t0, t1, p, "")
	return out
}

// meteredAutomaton times one process's automaton, splitting steps that
// deliver a message from null steps.
type meteredAutomaton struct {
	inner sim.Automaton
	t     *tracer
	p     dist.ProcID
}

func (a *meteredAutomaton) Step(e *sim.Env) {
	t := a.t
	payload, _, delivered := e.Delivered()
	m, name := &t.m.null, "step.null"
	if delivered {
		m, name = &t.m.deliver, "step.deliver"
	}
	m.calls++
	if !t.timed {
		a.inner.Step(e)
		return
	}
	t.curStep = m
	t0 := time.Now()
	a.inner.Step(e)
	t1 := time.Now()
	t.curStep = nil
	m.add(t0, t1)
	if t.spans != nil {
		typ := ""
		if delivered {
			typ = t.spans.typeName(payload)
		}
		t.spans.add(name, t0, t1, a.p, typ)
	}
}

// Recover forwards a recovery to the wrapped automaton, as the runner would.
func (a *meteredAutomaton) Recover() {
	if r, ok := a.inner.(sim.Recoverable); ok {
		r.Recover()
	}
}

// inner unwraps a metered automaton.
func inner(a sim.Automaton) sim.Automaton {
	if m, ok := a.(*meteredAutomaton); ok {
		return m.inner
	}
	return a
}

// unwrap replaces every metered automaton of a result by the automaton it
// wraps, so checks see exactly what an unwrapped run returns.
func unwrap(res *sim.Result) {
	for i, a := range res.Automata {
		res.Automata[i] = inner(a)
	}
}

// spanLog keeps recorded spans in memory until the benchmark writes them.
// A nil log records nothing.
type spanLog struct {
	epoch time.Time
	pid   int   // workload
	seed  int64 // run
	spans []span
	types map[reflect.Type]string
}

type span struct {
	name       string
	pid        int
	seed       int64
	start, dur int64 // ns since epoch
	p          dist.ProcID
	payload    string
}

func newSpanLog() *spanLog {
	return &spanLog{epoch: time.Now(), types: map[reflect.Type]string{}}
}

func (l *spanLog) add(name string, t0, t1 time.Time, p dist.ProcID, payload string) {
	if l == nil {
		return
	}
	l.spans = append(l.spans, span{
		name: name, pid: l.pid, seed: l.seed,
		start: t0.Sub(l.epoch).Nanoseconds(), dur: t1.Sub(t0).Nanoseconds(),
		p: p, payload: payload,
	})
}

// typeName names a payload's dynamic type. The per-payload-type step
// breakdown lives in the spans file, not in metric names, because the
// payload types are the store's unexported wire format.
func (l *spanLog) typeName(v any) string {
	rt := reflect.TypeOf(v)
	name, ok := l.types[rt]
	if !ok {
		name = rt.String()
		l.types[rt] = name
	}
	return name
}
