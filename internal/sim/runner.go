package sim

import (
	"errors"
	"fmt"
	"reflect"
	"slices"

	"repro/internal/dist"
	"repro/internal/trace"
)

// StopReason reports why a run ended.
type StopReason uint8

// Stop reasons.
const (
	// ReasonMaxSteps: the step budget was exhausted.
	ReasonMaxSteps StopReason = iota + 1
	// ReasonAllDecided: every correct process decided.
	ReasonAllDecided
	// ReasonSchedulerDone: the scheduler ended the run (script exhausted).
	ReasonSchedulerDone
	// ReasonStopCond: the configured StopWhen condition held.
	ReasonStopCond
	// ReasonAllCrashed: no process is alive anymore.
	ReasonAllCrashed
)

// String names the stop reason.
func (r StopReason) String() string {
	switch r {
	case ReasonMaxSteps:
		return "max-steps"
	case ReasonAllDecided:
		return "all-decided"
	case ReasonSchedulerDone:
		return "scheduler-done"
	case ReasonStopCond:
		return "stop-condition"
	case ReasonAllCrashed:
		return "all-crashed"
	default:
		return fmt.Sprintf("reason(%d)", uint8(r))
	}
}

// Config describes a run of the asynchronous system.
type Config struct {
	// Pattern is the failure pattern F of the run (also fixes n).
	Pattern *dist.FailurePattern
	// History is the failure-detector history H ∈ D(F) queried by the
	// bottom layer of every process.
	History History
	// Program instantiates each process's automaton.
	Program Program
	// Scheduler drives the interleaving. Defaults to NewRandomScheduler(1).
	Scheduler Scheduler
	// MaxSteps bounds the run's time horizon in ticks (the finite horizon
	// standing in for the model's infinite runs). Defaults to 10_000·n.
	MaxSteps int64
	// Faults, when non-nil, is the adversarial network applied to every
	// message: seeded loss/duplication/extra delay and scripted partitions.
	// Decisions are a pure function of (Faults.Seed ⊕ run seed, message
	// Seq), so sweeps stay bit-identical across worker counts. The run seed
	// is the one Runner.Reset(seed) last received; one-shot Run never calls
	// Reset, so its runs use run seed 0 whatever Scheduler seed is passed.
	// Nil costs nothing on the hot path.
	Faults *FaultPlan
	// StopWhenDecided ends the run as soon as every correct process decided.
	StopWhenDecided bool
	// StopWhen, when non-nil, ends the run after any tick where it holds. It
	// is evaluated after every tick from tick 0 of every run, so the first
	// call of a run sees Snapshot.Now() == 0; a condition that keeps state
	// across calls may reset it there.
	StopWhen func(s *Snapshot) bool
	// DisableTrace skips event recording (benchmarks, sweeps). The op log
	// (Result.Ops) is kept either way.
	DisableTrace bool
}

// Result is the outcome of a run. A Runner fills one Result per run and
// returns the same one from every Run: its fields, the Decisions and
// DecideTime maps included, are the Runner's buffers and stay valid until
// the next Reset. Run clears both maps before it fills them, so they never
// hold a process that did not decide in the run they describe. A caller
// that keeps a result across runs copies what it needs first.
type Result struct {
	// Steps counts automaton steps, including the null steps of Quiescent
	// automata that the runner counts without computing them; Ticks counts
	// elapsed model time, including idle ticks where no process stepped.
	// Trace times and MaxSteps are in ticks.
	Steps  int64
	Ticks  int64
	Reason StopReason
	// Decisions and DecideTime hold each process that decided, with its
	// decision and its tick.
	Decisions  map[dist.ProcID]any
	DecideTime map[dist.ProcID]dist.Time
	Trace      *trace.Trace
	// Ops is the run's op log: every Invoke and Return record in the order
	// the steps made them, on every run, traced or not. A recovered
	// process's pre-crash records stay in it.
	Ops []OpEvent
	// Automata holds each process's final automaton (index p-1), so tests
	// can inspect emulator outputs and internal state post-run. The next
	// Reset rewinds Rewinder automata in place. Writing into the slice does
	// not change the Runner's own set.
	Automata []Automaton
	// MessagesSent counts all messages enqueued during the run.
	MessagesSent int64
	// Fault-injection counters (all zero without a FaultPlan).
	// MessagesDropped counts sends discarded by loss, MessagesDuplicated
	// counts extra copies enqueued (each also counted in MessagesSent), and
	// MessagesDelayed counts copies enqueued with a non-zero extra delay.
	MessagesDropped    int64
	MessagesDuplicated int64
	MessagesDelayed    int64
}

// Decision returns p's decision, if any.
func (r *Result) Decision(p dist.ProcID) (any, bool) {
	v, ok := r.Decisions[p]
	return v, ok
}

// valuesEqual compares two dynamic values, using == when the dynamic type
// supports it and falling back to reflect.DeepEqual for non-comparable
// types (slices, maps) and for top-level pointers, which == would compare
// by identity while DeepEqual compares pointees. Emulator outputs are almost
// always small comparable values (ProcSet, TrustList, ints), so the hot path
// never enters reflect. Residual caveat, accepted for speed: a pointer
// nested inside a comparable struct still compares by identity.
func valuesEqual(a, b any) bool {
	if a == nil || b == nil {
		return a == b
	}
	ta := reflect.TypeOf(a)
	if ta != reflect.TypeOf(b) {
		return false
	}
	switch ta.Kind() {
	case reflect.Pointer, reflect.UnsafePointer:
		return reflect.DeepEqual(a, b)
	}
	if ta.Comparable() {
		if eq, ok := tryEqual(a, b); ok {
			return eq
		}
	}
	return reflect.DeepEqual(a, b)
}

// tryEqual attempts a == b, reporting ok=false when the comparison panics: a
// comparable static type can still hold uncomparable values in interface
// fields (e.g. struct{ V any } with V = []int), which == rejects at runtime
// but DeepEqual handles. The recover cannot swallow unrelated panics — the
// interface comparison is the only operation in the function.
func tryEqual(a, b any) (eq, ok bool) {
	defer func() {
		if recover() != nil {
			eq, ok = false, false
		}
	}()
	return a == b, true
}

// Snapshot exposes live run state to StopWhen conditions.
type Snapshot struct{ r *Runner }

// Now returns the current time.
func (s *Snapshot) Now() dist.Time { return s.r.now }

// Decided returns p's decision, if it has decided.
func (s *Snapshot) Decided(p dist.ProcID) (any, bool) {
	if !s.r.decidedSet.Contains(p) {
		return nil, false
	}
	return s.r.decisions[p-1], true
}

// DecidedSet returns the processes that have decided: those for which
// Decided reports a decision.
func (s *Snapshot) DecidedSet() dist.ProcSet { return s.r.decidedSet }

// EmuOutput returns the current emulated failure-detector output of p when
// p's automaton is an Emulator, else nil.
func (s *Snapshot) EmuOutput(p dist.ProcID) any {
	if emu := s.r.emus[p-1]; emu != nil {
		return emu.Output()
	}
	return nil
}

// Automaton returns p's automaton for state inspection by stop conditions.
// Conditions must treat it as read-only.
func (s *Snapshot) Automaton(p dist.ProcID) Automaton { return s.r.automata[p-1] }

// Runner executes runs of one configured system. A Runner owns all hot-path
// state — per-process inboxes, the step context, the scheduler view — and
// Reset rewinds it without releasing any buffer, so sweeps and benchmarks
// amortize their allocations across arbitrarily many runs:
//
//	r, err := sim.NewRunner(cfg)
//	for seed := int64(0); seed < runs; seed++ {
//		res, err := r.Reset(seed).Run()
//		...
//	}
//	r.Release()
//
// Release hands the runner's inbox set, with its payload pools (PoolOf), to
// a later runner that NewRunner builds for at most as many processes, so a
// sweep that builds a runner per generated workload does not regrow every
// inbox and pool from empty. A released set belongs to that pool, no
// longer to the runner.
//
// The zero-based package-level Run remains the one-shot convenience wrapper.
// A Runner is not safe for concurrent use; Run may be called once per Reset.
type Runner struct {
	cfg Config
	n   int

	now   dist.Time
	steps int64
	seq   int64
	sent  int64

	runSeed    int64 // seed of the current run (fault decision stream)
	dropped    int64 // messages discarded by loss
	duplicated int64 // extra copies enqueued by duplication
	delayed    int64 // copies enqueued with a non-zero extra delay

	automata []Automaton
	out      []Automaton // Result.Automata: a copy of automata made by Run
	// emus and quiet hold each automaton's Emulator and Quiescent views (nil
	// where it implements neither), resolved by install when the automaton
	// is built or swapped in by a recovery, never per step.
	emus  []Emulator
	quiet []Quiescent
	// set is the runner's inbox set and payload pools, and inboxes its
	// queues, indexed by ProcID (slot 0 unused); both are nil once Release
	// gave them back.
	set     *inboxSet
	inboxes []inbox

	decisions  []any       // indexed by ProcID-1
	decideTime []dist.Time // indexed by ProcID-1
	decidedSet dist.ProcSet
	correct    dist.ProcSet

	// tr is the run's trace, nil on untraced runs. A nil tr means no trace
	// holds a message payload, which is what grants the payload lease
	// (Env.DeliveredOwned).
	tr        *trace.Trace
	lastEmu   []any   // each Emulator's last recorded output
	delivered Message // scratch copy of the message handed to the stepping automaton

	// trans is the pattern's crash and recovery schedule and next the first
	// transition the run has not applied yet; alive is the alive set those
	// applied so far leave.
	trans []dist.Transition
	next  int
	alive dist.ProcSet
	// bounds holds every finite partition From and Until in increasing
	// order: the ticks at which a FaultPlan can change which queued
	// messages are blocked (see pendingCount).
	bounds []dist.Time
	// built reports that automata holds instances no run has stepped yet
	// (built by NewRunner or rewound by a reset), which the next reset keeps
	// as they are.
	built bool

	view View      // reused scheduler view; Pending bound once
	env  Env       // reused step context
	ops  []OpEvent // the run's op log (Result.Ops), truncated only by reset
	snap Snapshot
	res  Result // what Run returns, refilled by every run

	ran bool
	err error
}

var (
	// ErrScheduledCrashed is reported when a scripted schedule steps a
	// process that has already crashed at that time.
	ErrScheduledCrashed = errors.New("sim: scheduler picked a crashed process")
	// ErrDoubleDecision is reported when a process decides twice.
	ErrDoubleDecision = errors.New("sim: process decided twice")
)

// Reseeder is implemented by schedulers that can rewind to a fresh seeded
// state, letting Runner.Reset reuse one scheduler across runs.
type Reseeder interface {
	Reseed(seed int64)
}

// Run executes a configured run to completion and returns its result. The
// only errors are protocol/setup errors (double decision, scripted schedule
// inconsistencies); property violations are for checkers to find in the
// result, not errors. Run never calls Reset, so a FaultPlan's decision
// stream uses run seed 0 whatever seed cfg.Scheduler carries; only
// Runner.Reset(seed) mixes a seed into it.
func Run(cfg Config) (*Result, error) {
	r, err := NewRunner(cfg)
	if err != nil {
		return nil, err
	}
	return r.Run()
}

// NewRunner validates cfg, sizes every buffer for its system and prepares
// the first run. Call Run to execute it, and Reset between runs. Its inbox
// set is one that a released runner of at least its size gave back, when
// there is one (see Release), else a new one.
func NewRunner(cfg Config) (*Runner, error) {
	if cfg.Pattern == nil {
		return nil, errors.New("sim: Config.Pattern is required")
	}
	if cfg.History == nil {
		return nil, errors.New("sim: Config.History is required")
	}
	if cfg.Program == nil {
		return nil, errors.New("sim: Config.Program is required")
	}
	n := cfg.Pattern.N()
	if cfg.Scheduler == nil {
		cfg.Scheduler = NewRandomScheduler(1)
	}
	if cfg.MaxSteps <= 0 {
		cfg.MaxSteps = int64(10_000 * n)
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(n); err != nil {
			return nil, err
		}
	}

	r := &Runner{
		cfg:        cfg,
		n:          n,
		decisions:  make([]any, n),
		decideTime: make([]dist.Time, n),
		correct:    cfg.Pattern.Correct(),
		lastEmu:    make([]any, n),
		automata:   make([]Automaton, n),
		out:        make([]Automaton, n),
		emus:       make([]Emulator, n),
		quiet:      make([]Quiescent, n),
		built:      true,
	}
	r.snap = Snapshot{r: r}
	// Unsized: a run with no decision (every store run) never fills them.
	r.res.Decisions = map[dist.ProcID]any{}
	r.res.DecideTime = map[dist.ProcID]dist.Time{}
	r.view = View{N: n, Pending: r.pendingCount}
	r.env.history = cfg.History
	// The pattern is part of the configured system and must not change over
	// the runner's lifetime (Correct above is cached on the same premise).
	r.trans = cfg.Pattern.Transitions()
	if cfg.Faults != nil {
		for _, pt := range cfg.Faults.Partitions {
			r.bounds = append(r.bounds, pt.From)
			if pt.Until != dist.NoCrash {
				r.bounds = append(r.bounds, pt.Until)
			}
		}
		slices.Sort(r.bounds)
	}
	for p := dist.ProcID(1); int(p) <= n; p++ {
		r.install(p, cfg.Program(p, n))
	}
	r.reset()
	return r, nil
}

// Reset rewinds the runner for another run of the same system: automata in
// their constructed state, empty inboxes and decision state, time zero. A
// Rewinder automaton is rewound in place; any other is built afresh by the
// Program. Automata that no run has stepped yet (those NewRunner built) are
// kept as they are, so NewRunner followed by Reset builds each process's
// automaton once. The last Result, its maps, Automata and Ops are the
// runner's buffers, which the next Run refills, and so are valid only until
// Reset. The scheduler is reseeded when it implements Reseeder
// (NewRandomScheduler does); scripted schedulers can instead be swapped via
// fresh configs. Reset returns the runner for chaining.
func (r *Runner) Reset(seed int64) *Runner {
	if rs, ok := r.cfg.Scheduler.(Reseeder); ok {
		rs.Reseed(seed)
	}
	r.runSeed = seed
	r.reset()
	return r
}

func (r *Runner) reset() {
	r.now = 0
	r.steps = 0
	r.seq = 0
	r.sent = 0
	r.dropped = 0
	r.duplicated = 0
	r.delayed = 0
	r.err = nil
	r.ran = false
	r.decidedSet = dist.ProcSet{}
	r.next = 0
	r.alive = r.cfg.Pattern.All()
	// Messages still in flight when the last run stopped give their leased
	// payloads back, exactly as at a recovery (r.tr is still the last
	// run's here): a pool leaking a slot per parked message would make
	// every run re-allocate and re-grow payloads, coupling its allocations
	// to the runs before it.
	for i := range r.inboxes {
		r.inboxes[i].wipe(r.tr == nil)
	}
	if r.set == nil {
		r.set = takeInboxSet(r.n)
		r.inboxes = r.set.q
		r.env.pools = &r.set.pools
	}
	for i := 0; i < r.n; i++ {
		r.decisions[i] = nil
		r.decideTime[i] = 0
		r.lastEmu[i] = nil
	}

	if !r.built {
		for p := dist.ProcID(1); int(p) <= r.n; p++ {
			r.renew(p)
		}
		r.built = true
	}

	// A traced run gets a new trace (the last one went out with its
	// result), sized like the last run's so it does not regrow from empty.
	if r.cfg.DisableTrace {
		r.tr = nil
	} else {
		hint := 0
		if r.tr != nil {
			hint = r.tr.Len()
		}
		r.tr = trace.New(hint)
	}
	r.ops = r.ops[:0]

	// Record initial emulator outputs at time -1 so OutputAt is defined from
	// the very first step.
	for p := dist.ProcID(1); int(p) <= r.n; p++ {
		if emu := r.emus[p-1]; emu != nil {
			out := emu.Output()
			r.lastEmu[p-1] = out
			r.record(trace.Event{T: -1, P: p, Kind: trace.EmuKind, Payload: out})
		}
	}
}

// Release ends the runner's use of its inbox set: in-flight messages give
// their leased payloads back, as at a Reset, so every pooled payload is
// home in the set's pools (PoolOf); every buffer is cleared up to its
// capacity, so no payload stays reachable through it; and the set, pools
// included, goes to the pool that NewRunner draws from. From then on the
// set belongs to that pool. Call Release once the last Result is no longer
// needed; a released runner runs again only after a Reset, which takes a
// set anew. Releasing twice is a no-op.
func (r *Runner) Release() {
	if r.set == nil {
		return
	}
	for i := range r.inboxes {
		q := &r.inboxes[i]
		q.wipe(r.tr == nil)
		clear(q.buf[:cap(q.buf)])
	}
	inboxSets.Put(r.set)
	r.set, r.inboxes, r.env.pools = nil, nil, nil
}

// install sets p's automaton to a and resolves its optional Emulator and
// Quiescent views, so the step path makes no type assertion.
func (r *Runner) install(p dist.ProcID, a Automaton) {
	r.automata[p-1] = a
	r.emus[p-1], _ = a.(Emulator)
	r.quiet[p-1], _ = a.(Quiescent)
}

// renew returns p's automaton to its constructed state: rewound in place
// when it is a Rewinder, else replaced by a fresh one from the Program.
func (r *Runner) renew(p dist.ProcID) {
	if rw, ok := r.automata[p-1].(Rewinder); ok {
		rw.Rewind()
		return
	}
	r.install(p, r.cfg.Program(p, r.n))
}

// Run executes the prepared run to completion. It may be called once per
// Reset, and returns the runner's one Result, refilled (see Result).
func (r *Runner) Run() (*Result, error) {
	if r.ran {
		return nil, errors.New("sim: Runner.Run called twice without Reset")
	}
	if r.set == nil {
		return nil, errors.New("sim: Runner.Run after Release without Reset")
	}
	r.ran = true
	r.built = false // the run steps the automata
	reason := r.loop()
	copy(r.out, r.automata)
	res := &r.res
	clear(res.Decisions)
	clear(res.DecideTime)
	*res = Result{
		Steps:        r.steps,
		Ticks:        int64(r.now),
		Reason:       reason,
		Decisions:    res.Decisions,
		DecideTime:   res.DecideTime,
		Trace:        r.tr,
		Ops:          r.ops,
		Automata:     r.out,
		MessagesSent: r.sent,

		MessagesDropped:    r.dropped,
		MessagesDuplicated: r.duplicated,
		MessagesDelayed:    r.delayed,
	}
	r.decidedSet.ForEach(func(p dist.ProcID) {
		res.Decisions[p] = r.decisions[p-1]
		res.DecideTime[p] = r.decideTime[p-1]
	})
	return res, r.err
}

func (r *Runner) loop() StopReason {
	for ; int64(r.now) < r.cfg.MaxSteps; r.now++ {
		t := r.now
		for r.next < len(r.trans) && r.trans[r.next].T <= t {
			r.apply(r.trans[r.next])
			r.next++
		}
		alive := r.alive
		if alive.IsEmpty() {
			return ReasonAllCrashed
		}
		if r.cfg.StopWhenDecided && r.correct.SubsetOf(r.decidedSet) {
			return ReasonAllDecided
		}
		r.view.Now = t
		r.view.Alive = alive
		choice, ok := r.cfg.Scheduler.Next(&r.view)
		if !ok {
			return ReasonSchedulerDone
		}
		if choice.Proc != dist.None {
			p := choice.Proc
			if !alive.Contains(p) {
				r.err = fmt.Errorf("%w: p%d at t=%d", ErrScheduledCrashed, int(p), int64(t))
				return ReasonSchedulerDone
			}
			msg := r.pickMessage(p, t, choice)
			if q := r.quiet[p-1]; msg == nil && q != nil && q.Quiescent() {
				// A null step of a quiescent automaton does nothing (the
				// Quiescent contract): it is counted and, traced, recorded
				// as the full step would record it, but not computed.
				r.steps++
				if r.tr != nil {
					r.tr.Append(trace.Event{T: t, P: p, Kind: trace.StepKind})
				}
			} else {
				r.step(p, t, msg)
				if r.err != nil {
					return ReasonSchedulerDone
				}
			}
		}
		if r.cfg.StopWhen != nil && r.cfg.StopWhen(&r.snap) {
			r.now++
			return ReasonStopCond
		}
		if r.cfg.StopWhenDecided && r.correct.SubsetOf(r.decidedSet) {
			r.now++
			return ReasonAllDecided
		}
	}
	return ReasonMaxSteps
}

func (r *Runner) step(p dist.ProcID, t dist.Time, msg *Message) {
	e := &r.env
	// Untraced, the automaton owns its delivery (see r.tr).
	e.step(r.automata[p-1], p, r.n, t, msg, r.tr == nil)
	r.steps++
	r.ops = append(r.ops, e.ops...)

	if r.tr != nil {
		ev := trace.Event{T: t, P: p, Kind: trace.StepKind}
		if msg != nil {
			ev.Delivered = true
			ev.From = msg.From
			ev.Layer = int8(msg.Layer)
			ev.Payload = msg.Payload
			ev.Seq = msg.Seq
		}
		if e.fdQueried {
			ev.FD = e.fdCache
		}
		r.tr.Append(ev)
	}

	for _, sr := range e.sends {
		r.seq++
		r.sent++
		m := Message{Seq: r.seq, Sent: t, Payload: sr.payload, From: p, To: sr.to, Layer: sr.layer}
		if r.tr != nil {
			r.tr.Append(trace.Event{T: t, P: p, Kind: trace.SendKind, To: sr.to, Layer: int8(sr.layer), Seq: m.Seq, Payload: sr.payload})
		}
		fp := r.cfg.Faults
		if fp == nil {
			r.inboxes[sr.to].push(m, t)
			continue
		}
		drop, dup, delay, dupDelay := fp.decide(r.runSeed, m.Seq)
		if drop {
			r.sent--
			r.dropped++
			if r.tr != nil {
				r.tr.Append(trace.Event{T: t, P: p, Kind: trace.DropKind, To: sr.to, Layer: int8(sr.layer), Seq: m.Seq, Payload: sr.payload})
			} else if rc, ok := sr.payload.(RefCounted); ok {
				// Send counted this delivery in the payload's lease
				// refcount (Env.DeliveredOwned); give the lost copy's
				// reference back so the pool is not starved.
				rc.DropRef()
			}
			continue
		}
		if delay > 0 {
			r.delayed++
		}
		r.enqueue(m, t+delay, t)
		if dup {
			r.seq++
			r.sent++
			r.duplicated++
			if dupDelay > 0 {
				r.delayed++
			}
			m2 := m
			m2.Seq = r.seq
			if r.tr != nil {
				r.tr.Append(trace.Event{T: t, P: p, Kind: trace.SendKind, To: sr.to, Layer: int8(sr.layer), Seq: m2.Seq, Payload: sr.payload})
			} else if rc, ok := sr.payload.(RefCounted); ok {
				// The extra copy is one more delivery than Send counted;
				// account for it before it is enqueued.
				rc.AddRef()
			}
			r.enqueue(m2, t+dupDelay, t)
		}
	}

	if v, ok, err := e.decision(r.decisions[p-1], r.decidedSet.Contains(p)); err != nil {
		r.err = err
		return
	} else if ok {
		r.decisions[p-1] = v
		r.decideTime[p-1] = t
		r.decidedSet = r.decidedSet.Add(p)
		r.record(trace.Event{T: t, P: p, Kind: trace.DecideKind, Payload: v})
	}

	if r.tr != nil {
		for _, op := range e.ops {
			kind := trace.InvokeKind
			if op.Return {
				kind = trace.ReturnKind
			}
			r.tr.Append(trace.Event{T: t, P: p, Kind: kind, Seq: op.Seq, Payload: op.Op})
		}
	}

	if emu := r.emus[p-1]; emu != nil {
		// reset and install recorded every Emulator's output, so lastEmu
		// always holds the one to compare against.
		if out := emu.Output(); !valuesEqual(out, r.lastEmu[p-1]) {
			r.lastEmu[p-1] = out
			r.record(trace.Event{T: t, P: p, Kind: trace.EmuKind, Payload: out})
		}
	}
}

func (r *Runner) record(e trace.Event) {
	if r.tr != nil {
		r.tr.Append(e)
	}
}

// apply makes transition x of the pattern effective. A crash takes its
// process out of the alive set. A recovery puts it back with its automaton
// in the constructed state, rewound in place or fresh from the Program
// (volatile state is lost; the Recoverable hook lets layered automata drop
// state a fresh instance would otherwise resurrect, e.g. a store client's
// script), drops its parked inbox entries and forgets any pre-crash
// decision — the process may legitimately re-decide after relearning the
// value, so the double-decision guard must not fire.
func (r *Runner) apply(x dist.Transition) {
	p := x.P
	if !x.Recover {
		r.alive = r.alive.Remove(p)
		r.record(trace.Event{T: x.T, P: p, Kind: trace.CrashKind})
		return
	}
	r.alive = r.alive.Add(p)
	r.renew(p)
	if rec, ok := r.automata[p-1].(Recoverable); ok {
		rec.Recover()
	}
	r.inboxes[p].wipe(r.tr == nil)
	if r.decidedSet.Contains(p) {
		r.decidedSet = r.decidedSet.Remove(p)
		r.decisions[p-1] = nil
		r.decideTime[p-1] = 0
	}
	r.record(trace.Event{T: x.T, P: p, Kind: trace.RecoverKind})
	if emu := r.emus[p-1]; emu != nil {
		out := emu.Output()
		r.lastEmu[p-1] = out
		r.record(trace.Event{T: x.T, P: p, Kind: trace.EmuKind, Payload: out})
	}
}

// deliverable is the one deliverability rule: e's notBefore has passed (a
// tombstone's never does) and no FaultPlan partition blocks it at tick t.
func (r *Runner) deliverable(e *inboxEntry, t dist.Time) bool {
	return e.notBefore <= t && (r.cfg.Faults == nil || !r.cfg.Faults.Blocked(e.msg.From, e.msg.To, t))
}

// pendingCount backs the scheduler view's Pending, bound once per runner as
// a method value: the number of messages deliverable to p at the current
// tick. Without a FaultPlan every live entry is deliverable (notBefore is
// only ever set by fault-injected delay). Under a FaultPlan the inbox caches
// an exact count, which enqueue and pickMessage adjust and which goes stale
// only at a tick where deliverability can change: a partition's From or
// Until, or a delayed entry's notBefore.
func (r *Runner) pendingCount(p dist.ProcID) int {
	q := &r.inboxes[p]
	if r.cfg.Faults == nil {
		return q.live
	}
	if r.now >= q.readyUntil {
		r.recount(q, r.now)
	}
	return q.ready
}

// recount rebuilds q's cached deliverable count at tick t and dates it: it
// holds until the next partition bound or the earliest notBefore still in
// the future, whichever comes first.
func (r *Runner) recount(q *inbox, t dist.Time) {
	q.ready = 0
	q.readyUntil = dist.NoCrash
	if i, _ := slices.BinarySearch(r.bounds, t+1); i < len(r.bounds) {
		q.readyUntil = r.bounds[i]
	}
	cut := r.cfg.Faults.partitionedAt(t)
	for i := q.head; i < len(q.buf); i++ {
		e := &q.buf[i]
		switch {
		case e.notBefore > t: // a tombstone's goneAt leaves readyUntil as it is
			q.readyUntil = min(q.readyUntil, e.notBefore)
		case !cut || !r.cfg.Faults.Blocked(e.msg.From, e.msg.To, t):
			q.ready++
		}
	}
}

// enqueue appends a fault-path message to its receiver's inbox at tick t,
// deliverable no earlier than notBefore, and keeps a live cached count
// exact: no partition bound falls inside its validity, so whether the
// message is blocked at t holds until then.
func (r *Runner) enqueue(m Message, notBefore, t dist.Time) {
	q := &r.inboxes[m.To]
	q.push(m, notBefore)
	switch {
	case t >= q.readyUntil: // stale or never counted: the next query recounts
	case notBefore > t:
		q.readyUntil = min(q.readyUntil, notBefore)
	case !r.cfg.Faults.Blocked(m.From, m.To, t):
		q.ready++
	}
}

// pickMessage selects and removes the message delivered to p at time t per
// the scheduler's choice, or returns nil for a null step. The returned
// pointer refers to the runner's delivery scratch slot and is valid for one
// step.
func (r *Runner) pickMessage(p dist.ProcID, t dist.Time, c Choice) *Message {
	if c.Mode == DeliverNone {
		return nil
	}
	q := &r.inboxes[p]
	for i := q.head; i < len(q.buf); i++ {
		e := &q.buf[i]
		if !r.deliverable(e, t) {
			continue
		}
		if c.Mode == DeliverMatch && (c.Match == nil || !c.Match(&e.msg)) {
			continue
		}
		if t < q.readyUntil {
			q.ready-- // a live cached count counted this deliverable entry
		}
		// Copy out before the slot is reused: the automaton's own sends may
		// append to (and grow or rewind) this inbox during the step.
		r.delivered = q.take(i)
		return &r.delivered
	}
	return nil
}
