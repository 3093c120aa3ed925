package sim

import (
	"errors"
	"fmt"
	"reflect"
	"sort"

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
	// ReasonStalled: Config.StallLimit ticks elapsed with no progress (no
	// delivery, no send, no decision, no recorded operation event) — the
	// livelock guard for lossy runs without retransmission.
	ReasonStalled
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
	case ReasonStalled:
		return "stalled"
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
	// DeliveryFilter, when non-nil, marks messages as temporarily
	// undeliverable (the proofs' "messages are delayed until ..."). A
	// message is deliverable at time t iff the filter returns true.
	DeliveryFilter func(m *Message, now dist.Time) bool
	// Faults, when non-nil, is the adversarial network applied to every
	// message: seeded loss/duplication/extra delay and scripted partitions.
	// Decisions are a pure function of (Faults.Seed ⊕ run seed, message
	// Seq), so sweeps stay bit-identical across worker counts. The run seed
	// is the one Runner.Reset(seed) last received; one-shot Run never calls
	// Reset, so its runs use run seed 0 whatever Scheduler seed is passed.
	// Nil costs nothing on the hot path.
	Faults *FaultPlan
	// StallLimit, when > 0, ends the run with ReasonStalled after that many
	// consecutive ticks without progress (no message delivered, none sent,
	// no decision, no operation event). It is the livelock guard for runs
	// where loss can strand a protocol that never retransmits; a protocol
	// that retransmits (even at a capped backoff probe rate) keeps sending
	// and is never declared stalled.
	StallLimit int64
	// StopWhenDecided ends the run as soon as every correct process decided.
	StopWhenDecided bool
	// StopWhen, when non-nil, ends the run after any tick where it holds. It
	// is evaluated after every tick from tick 0 of every run, so the first
	// call of a run sees Snapshot.Now() == 0; a condition that keeps state
	// across calls may reset it there.
	StopWhen func(s *Snapshot) bool
	// DisableTrace skips event recording (benchmarks on the hot path).
	DisableTrace bool
	// OmitMessages keeps message traffic out of the trace: it records
	// operation, decide, emulator, crash and recover events but no Step,
	// Send or Drop events. With no message payload in the trace, delivered
	// payloads are leased to their receivers (Env.DeliveredOwned) exactly as
	// on untraced runs, while operation records stay on. ReplayScript needs
	// Step events, so a full trace of such a run comes from running its
	// seed again without OmitMessages: the schedule is the same. It cannot
	// be combined with DisableTrace.
	OmitMessages bool
}

// Result is the outcome of a run.
type Result struct {
	// Steps counts executed automaton steps; Ticks counts elapsed model
	// time, including idle ticks where no process stepped. Trace times and
	// MaxSteps are in ticks.
	Steps      int64
	Ticks      int64
	Reason     StopReason
	Decisions  map[dist.ProcID]any
	DecideTime map[dist.ProcID]dist.Time
	Trace      *trace.Trace
	// Automata holds each process's final automaton (index p-1), so tests
	// can inspect emulator outputs and internal state post-run.
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

// DistinctDecisions returns the number of distinct decided values.
func (r *Result) DistinctDecisions() int {
	seen := make([]any, 0, len(r.Decisions))
	for _, v := range r.Decisions {
		dup := false
		for _, w := range seen {
			if valuesEqual(v, w) {
				dup = true
				break
			}
		}
		if !dup {
			seen = append(seen, v)
		}
	}
	return len(seen)
}

// valuesEqual compares two dynamic values, using == when the dynamic type
// supports it and falling back to reflect.DeepEqual for non-comparable
// types (slices, maps) and for top-level pointers, which == would compare
// by identity while DeepEqual compares pointees. Emulator outputs and
// decisions are almost always small comparable values (ProcSet, TrustList,
// ints), so the hot path never enters reflect. Residual caveat, accepted
// for speed: a pointer nested inside a comparable struct still compares by
// identity.
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

// AllCorrectDecided reports whether every correct process has decided.
func (s *Snapshot) AllCorrectDecided() bool { return s.r.allCorrectDecided() }

// EmuOutput returns the current emulated failure-detector output of p when
// p's automaton is an Emulator, else nil.
func (s *Snapshot) EmuOutput(p dist.ProcID) any {
	if emu, ok := s.r.automata[p-1].(Emulator); ok {
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

	runSeed      int64     // seed of the current run (fault decision stream)
	dropped      int64     // messages discarded by loss
	duplicated   int64     // extra copies enqueued by duplication
	delayed      int64     // copies enqueued with a non-zero extra delay
	lastProgress dist.Time // last tick that delivered, sent, decided or recorded an op

	automata []Automaton
	inboxes  []inbox // indexed by ProcID (slot 0 unused)

	decisions  []any       // indexed by ProcID-1
	decideTime []dist.Time // indexed by ProcID-1
	decidedSet dist.ProcSet
	correct    dist.ProcSet

	tr *trace.Trace
	// msgTr is tr when the trace records message events (Step, Send, Drop),
	// else nil. A nil msgTr means no trace holds a message payload, which
	// is what grants the payload lease (Env.DeliveredOwned).
	msgTr     *trace.Trace
	lastEmu   []any
	hasEmu    []bool
	delivered Message // scratch copy of the message handed to the stepping automaton

	crashEvents   []crashEvent
	crashPos      int
	recoverEvents []crashEvent
	recoverPos    int

	view View // reused scheduler view; Pending/Decided bound once
	env  Env  // reused step context
	snap Snapshot

	ran bool
	err error
}

type crashEvent struct {
	t dist.Time
	p dist.ProcID
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
// the first run. Call Run to execute it, and Reset between runs.
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
	if cfg.StallLimit < 0 {
		return nil, errors.New("sim: Config.StallLimit is negative")
	}
	if cfg.OmitMessages && cfg.DisableTrace {
		return nil, errors.New("sim: Config.OmitMessages needs a trace, but DisableTrace is set")
	}

	r := &Runner{
		cfg:        cfg,
		n:          n,
		inboxes:    make([]inbox, n+1),
		decisions:  make([]any, n),
		decideTime: make([]dist.Time, n),
		correct:    cfg.Pattern.Correct(),
		lastEmu:    make([]any, n),
		hasEmu:     make([]bool, n),
	}
	r.snap = Snapshot{r: r}
	r.view = View{
		N:       n,
		Correct: r.correct,
		Pending: r.viewPending,
		Decided: r.viewDecided,
	}
	r.env.history = cfg.History
	// The pattern is part of the configured system and must not change over
	// the runner's lifetime (Correct above is cached on the same premise),
	// so the sorted crash schedule is built once here, not per Reset.
	for p := dist.ProcID(1); int(p) <= n; p++ {
		if c := cfg.Pattern.CrashTime(p); c != dist.NoCrash {
			r.crashEvents = append(r.crashEvents, crashEvent{t: c, p: p})
		}
		if rc := cfg.Pattern.RecoverTime(p); rc != dist.NoCrash {
			r.recoverEvents = append(r.recoverEvents, crashEvent{t: rc, p: p})
		}
	}
	sort.Slice(r.crashEvents, func(i, j int) bool { return r.crashEvents[i].t < r.crashEvents[j].t })
	sort.Slice(r.recoverEvents, func(i, j int) bool { return r.recoverEvents[i].t < r.recoverEvents[j].t })
	r.reset()
	return r, nil
}

// Reset rewinds the runner for another run of the same system: fresh
// automata from the Program, empty inboxes and decision state, time zero.
// The scheduler is reseeded when it implements Reseeder (NewRandomScheduler
// does); scripted schedulers can instead be swapped via fresh configs. Reset
// returns the runner for chaining.
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
	r.lastProgress = 0
	r.err = nil
	r.ran = false
	r.decidedSet = dist.ProcSet{}
	r.crashPos = 0
	r.recoverPos = 0
	// Messages still in flight when the last run stopped give their leased
	// payloads back, exactly as at a recovery (r.msgTr is still the last
	// run's here): a pool leaking a slot per parked message would make
	// every run re-allocate and re-grow payloads, coupling its allocations
	// to the runs before it.
	for i := range r.inboxes {
		r.inboxes[i].wipe(r.msgTr == nil)
	}
	for i := 0; i < r.n; i++ {
		r.decisions[i] = nil
		r.decideTime[i] = 0
		r.lastEmu[i] = nil
		r.hasEmu[i] = false
	}

	// Fresh automata: the Program owns per-run process state. The slice is
	// reallocated (not reused) because results hand it out for inspection.
	r.automata = make([]Automaton, r.n)
	for p := dist.ProcID(1); int(p) <= r.n; p++ {
		r.automata[p-1] = r.cfg.Program(p, r.n)
	}

	r.tr, r.msgTr = nil, nil
	if !r.cfg.DisableTrace {
		r.tr = &trace.Trace{}
		if !r.cfg.OmitMessages {
			r.msgTr = r.tr
		}
	}

	// Record initial emulator outputs at time -1 so OutputAt is defined from
	// the very first step.
	for p := dist.ProcID(1); int(p) <= r.n; p++ {
		if emu, ok := r.automata[p-1].(Emulator); ok {
			out := emu.Output()
			r.lastEmu[p-1], r.hasEmu[p-1] = out, true
			r.record(trace.Event{T: -1, P: p, Kind: trace.EmuKind, Payload: out})
		}
	}
}

// Run executes the prepared run to completion. It may be called once per
// Reset.
func (r *Runner) Run() (*Result, error) {
	if r.ran {
		return nil, errors.New("sim: Runner.Run called twice without Reset")
	}
	r.ran = true
	reason := r.loop()
	res := &Result{
		Steps:        r.steps,
		Ticks:        int64(r.now),
		Reason:       reason,
		Decisions:    make(map[dist.ProcID]any, r.decidedSet.Len()),
		DecideTime:   make(map[dist.ProcID]dist.Time, r.decidedSet.Len()),
		Trace:        r.tr,
		Automata:     r.automata,
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

// viewPending and viewDecided back the scheduler view; binding them as
// method values once per runner replaces the per-step closure pair.
func (r *Runner) viewPending(p dist.ProcID) int { return r.pendingCount(p, r.now) }

func (r *Runner) viewDecided(p dist.ProcID) bool { return r.decidedSet.Contains(p) }

func (r *Runner) loop() StopReason {
	for ; int64(r.now) < r.cfg.MaxSteps; r.now++ {
		t := r.now
		r.emitCrashes(t)
		r.applyRecoveries(t)
		alive := r.cfg.Pattern.AliveAt(t)
		if alive.IsEmpty() {
			return ReasonAllCrashed
		}
		if r.cfg.StopWhenDecided && r.allCorrectDecided() {
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
			r.step(p, t, msg)
			if r.err != nil {
				return ReasonSchedulerDone
			}
		}
		if r.cfg.StopWhen != nil && r.cfg.StopWhen(&r.snap) {
			r.now++
			return ReasonStopCond
		}
		if r.cfg.StopWhenDecided && r.allCorrectDecided() {
			r.now++
			return ReasonAllDecided
		}
		if r.cfg.StallLimit > 0 && int64(t-r.lastProgress) >= r.cfg.StallLimit {
			return ReasonStalled
		}
	}
	return ReasonMaxSteps
}

func (r *Runner) step(p dist.ProcID, t dist.Time, msg *Message) {
	e := &r.env
	e.self = p
	e.n = r.n
	e.now = t
	e.delivered = msg
	// Unless the trace records messages, nothing retains a payload beyond
	// its delivery step, so the automaton may take ownership of delivered
	// buffers (the send-buffer lease contract; see Env.DeliveredOwned).
	// Untraced runs also skip op recording (Env.OpsRecorded).
	e.ownDelivered = r.msgTr == nil
	e.opsMuted = r.tr == nil
	e.layer = 0
	e.queryFD = nil
	e.fdCache = nil
	e.fdQueried = false
	e.sends = e.sends[:0]
	e.decided = false
	e.decision = nil
	e.ops = e.ops[:0]

	r.automata[p-1].Step(e)
	r.steps++
	if msg != nil || len(e.sends) > 0 || e.decided || len(e.ops) > 0 {
		r.lastProgress = t
	}

	if r.msgTr != nil {
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
		r.msgTr.Append(ev)
	}

	for _, sr := range e.sends {
		r.seq++
		r.sent++
		m := Message{Seq: r.seq, From: p, To: sr.to, Sent: t, Layer: sr.layer, Payload: sr.payload}
		if r.msgTr != nil {
			r.msgTr.Append(trace.Event{T: t, P: p, Kind: trace.SendKind, To: sr.to, Layer: int8(sr.layer), Seq: m.Seq, Payload: sr.payload})
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
			if r.msgTr != nil {
				r.msgTr.Append(trace.Event{T: t, P: p, Kind: trace.DropKind, To: sr.to, Layer: int8(sr.layer), Seq: m.Seq, Payload: sr.payload})
			} else if rc, ok := sr.payload.(RefCounted); ok {
				// The sender pre-counted this delivery in the payload's
				// lease refcount (Env.DeliveredOwned); give the lost copy's
				// reference back so the pool is not starved.
				rc.DropRef()
			}
			continue
		}
		if delay > 0 {
			r.delayed++
		}
		r.inboxes[sr.to].push(m, t+delay)
		if dup {
			r.seq++
			r.sent++
			r.duplicated++
			if dupDelay > 0 {
				r.delayed++
			}
			m2 := m
			m2.Seq = r.seq
			if r.msgTr != nil {
				r.msgTr.Append(trace.Event{T: t, P: p, Kind: trace.SendKind, To: sr.to, Layer: int8(sr.layer), Seq: m2.Seq, Payload: sr.payload})
			} else if rc, ok := sr.payload.(RefCounted); ok {
				// The extra copy is one more delivery than the sender
				// leased for; account for it before it is enqueued.
				rc.AddRef()
			}
			r.inboxes[sr.to].push(m2, t+dupDelay)
		}
	}

	if e.decided {
		if r.decidedSet.Contains(p) {
			r.err = fmt.Errorf("%w: p%d at t=%d", ErrDoubleDecision, int(p), int64(t))
			return
		}
		r.decisions[p-1] = e.decision
		r.decideTime[p-1] = t
		r.decidedSet = r.decidedSet.Add(p)
		r.record(trace.Event{T: t, P: p, Kind: trace.DecideKind, Payload: e.decision})
	}

	for _, op := range e.ops {
		kind := trace.InvokeKind
		if op.ret {
			kind = trace.ReturnKind
		}
		r.record(trace.Event{T: t, P: p, Kind: kind, Seq: op.seq, Payload: op.payload})
	}

	if emu, ok := r.automata[p-1].(Emulator); ok {
		out := emu.Output()
		if !r.hasEmu[p-1] || !valuesEqual(out, r.lastEmu[p-1]) {
			r.lastEmu[p-1], r.hasEmu[p-1] = out, true
			r.record(trace.Event{T: t, P: p, Kind: trace.EmuKind, Payload: out})
		}
	}
}

func (r *Runner) record(e trace.Event) {
	if r.tr != nil {
		r.tr.Append(e)
	}
}

func (r *Runner) emitCrashes(t dist.Time) {
	for r.crashPos < len(r.crashEvents) && r.crashEvents[r.crashPos].t <= t {
		ce := r.crashEvents[r.crashPos]
		r.record(trace.Event{T: ce.t, P: ce.p, Kind: trace.CrashKind})
		r.crashPos++
	}
}

// applyRecoveries makes pending recoveries effective: the recovering process
// gets a fresh zero-value automaton from the Program (volatile state is
// lost; the Recoverable hook lets layered automata drop state a fresh
// instance would otherwise resurrect, e.g. a store client's script), its
// parked inbox entries are dropped, and any pre-crash decision is forgotten
// — the process may legitimately re-decide after relearning the value, so
// the double-decision guard must not fire. A pattern without recoveries
// never enters the loop body, keeping recovery-free runs byte-identical.
func (r *Runner) applyRecoveries(t dist.Time) {
	for r.recoverPos < len(r.recoverEvents) && r.recoverEvents[r.recoverPos].t <= t {
		re := r.recoverEvents[r.recoverPos]
		r.recoverPos++
		p := re.p
		a := r.cfg.Program(p, r.n)
		if rec, ok := a.(Recoverable); ok {
			rec.Recover()
		}
		r.automata[p-1] = a
		r.inboxes[p].wipe(r.msgTr == nil)
		if r.decidedSet.Contains(p) {
			r.decidedSet = r.decidedSet.Remove(p)
			r.decisions[p-1] = nil
			r.decideTime[p-1] = 0
		}
		r.record(trace.Event{T: re.t, P: p, Kind: trace.RecoverKind})
		if emu, ok := a.(Emulator); ok {
			out := emu.Output()
			r.lastEmu[p-1], r.hasEmu[p-1] = out, true
			r.record(trace.Event{T: re.t, P: p, Kind: trace.EmuKind, Payload: out})
		}
	}
}

func (r *Runner) deliverable(e *inboxEntry, t dist.Time) bool {
	if e.notBefore > t {
		return false
	}
	if fp := r.cfg.Faults; fp != nil && fp.Blocked(e.msg.From, e.msg.To, t) {
		return false
	}
	if r.cfg.DeliveryFilter != nil && !r.cfg.DeliveryFilter(&e.msg, t) {
		return false
	}
	return true
}

func (r *Runner) pendingCount(p dist.ProcID, t dist.Time) int {
	q := &r.inboxes[p]
	// Fast path: without a filter or faults every live entry is deliverable
	// (notBefore is only ever set by fault-injected delay).
	if r.cfg.DeliveryFilter == nil && r.cfg.Faults == nil {
		return q.live
	}
	cnt := 0
	for i := q.head; i < len(q.buf); i++ {
		e := &q.buf[i]
		if !e.gone && r.deliverable(e, t) {
			cnt++
		}
	}
	return cnt
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
		if e.gone || !r.deliverable(e, t) {
			continue
		}
		if c.Mode == DeliverMatch && (c.Match == nil || !c.Match(&e.msg)) {
			continue
		}
		// Copy out before the slot is reused: the automaton's own sends may
		// append to (and grow or rewind) this inbox during the step.
		r.delivered = q.take(i)
		return &r.delivered
	}
	return nil
}

func (r *Runner) allCorrectDecided() bool {
	return r.correct.SubsetOf(r.decidedSet)
}
