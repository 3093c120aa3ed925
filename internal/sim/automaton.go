package sim

import (
	"fmt"

	"repro/internal/dist"
)

// History is a failure-detector history: the oracle function H that maps a
// process and a time to the failure-detector value the process observes if
// it queries at that time (Section 2.1 of the paper). Oracle histories are
// produced by package fd and package core; emulated histories are recovered
// from run traces.
type History interface {
	Output(p dist.ProcID, t dist.Time) any
}

// HistoryFunc adapts a function to the History interface.
type HistoryFunc func(p dist.ProcID, t dist.Time) any

// Output implements History.
func (f HistoryFunc) Output(p dist.ProcID, t dist.Time) any { return f(p, t) }

// Automaton is the deterministic per-process state machine of the model. The
// runner invokes Step once per scheduled step of the process; within a step
// the automaton may observe one delivered message, query the failure
// detector once, update its state, send messages and decide.
//
// Automata must be deterministic functions of their observation sequence:
// given the same deliveries and failure-detector values they must perform
// the same transitions. The indistinguishability constructions of the
// impossibility proofs rely on this.
type Automaton interface {
	Step(e *Env)
}

// Emulator is an automaton that emulates a failure detector: it exposes an
// output variable whose value over time forms the emulated history
// (Figures 3, 5 and 6 of the paper). Output must be a pure read.
type Emulator interface {
	Automaton
	Output() any
}

// Quiescent is implemented by automata that can prove a null step would do
// nothing. While Quiescent reports true, a step that delivers no message
// must change no state, send nothing, record no operation, query no failure
// detector, decide nothing and leave any Emulator output unchanged. The
// Runner then skips such a step's computation: the step still counts in
// Result.Steps and the schedule, and a traced run still records its
// StepKind event, so the run is the one the full step would have produced.
// Quiescent must be a pure read.
type Quiescent interface {
	Automaton
	Quiescent() bool
}

// Rewinder is implemented by automata that can return to the state their
// Program built them in without being rebuilt. After Rewind the automaton
// must act exactly as a fresh instance from the same Program for the same
// process would; it may keep its buffers. The Runner rewinds a Rewinder in
// place at every Reset after its first run and at every recovery, so the
// Program runs only when the Runner first builds its set: at NewRunner, and
// at the first Reset after a Release.
type Rewinder interface {
	Automaton
	Rewind()
}

// Releaser is implemented by automata whose buffers can serve a later
// runner. Runner.Release calls Release exactly once on each automaton of
// its set, after the last Result is no longer needed, and then forgets the
// automaton: a released automaton is never stepped, rewound or read again,
// so Release may hand it to a free list that a later Program draws from.
type Releaser interface {
	Automaton
	Release()
}

// Recoverable is implemented by automata that support crash-recovery with
// volatile-state loss. When a process recovers, the Runner rewinds its
// automaton in place (Rewinder) or instantiates a fresh one from the
// Program, and then calls Recover on it, letting the automaton drop state a
// fresh instance would otherwise resurrect: a store client's operation
// script (its pending ops died with the process — a recovered process must
// not replay writes whose values may already be in the system) and any
// replica data that must be repopulated through the protocol rather than
// reborn by the constructor. Wiring — shard maps, buffers, pools — stays.
type Recoverable interface {
	Automaton
	Recover()
}

// Program instantiates the automaton run by process p in a system of n
// processes. A Runner calls it once per process when it builds its set, and
// again at a Reset or a recovery only for automata that are not Rewinders.
type Program func(p dist.ProcID, n int) Automaton

// Env is the step context handed to Automaton.Step. It is valid only for the
// duration of the call. The runner and each explorer worker reuse one Env
// (and each Stack one Env per layer) across all steps, so a step on the hot
// path allocates nothing beyond what the automaton itself does.
type Env struct {
	self dist.ProcID
	n    int
	now  dist.Time // not exposed: the model's clock is inaccessible to processes

	delivered *Message
	// owned is set on runs that lease payloads: the stepping automaton owns
	// its delivery (see DeliveredOwned), and its sends count one reference
	// per recipient of a RefCounted payload. Set by the Runner on untraced
	// runs; never set by the explorer, whose branches share pending
	// messages.
	owned bool
	// layer, queryFD, history and pools are bindings, which step leaves
	// alone. QueryFD queries queryFD when non-nil (stacked layers bind the
	// emulator below), else history (the oracle — no per-step closure).
	// pools is the runner's payload pools (PoolOf).
	layer     Layer
	queryFD   func() any
	history   History
	pools     *poolSet
	fdCache   any
	fdQueried bool

	// The step's effects, which its caller applies after Step returns.
	sends     []sendReq
	decisions []any     // every Decide call of the step, in order
	ops       []OpEvent // Invoke/Return records stamped with now and self
}

// step is the one step of the Runner, the explorer and Stack: it resets e as
// the context of process p of n at tick t, delivering msg (nil for a null
// step), on a run that leases payloads when owned is set, and steps a. The
// step's effects stay in e until the next step: sends, Decide calls and op
// records.
func (e *Env) step(a Automaton, p dist.ProcID, n int, t dist.Time, msg *Message, owned bool) {
	e.self, e.n, e.now = p, n, t
	e.delivered, e.owned = msg, owned
	e.fdCache, e.fdQueried = nil, false
	e.sends = e.sends[:0]
	e.decisions = e.decisions[:0]
	e.ops = e.ops[:0]
	a.Step(e)
}

// decision applies Decide's double-decision rule to the step just taken in e
// by a process whose earlier decision is prior when had is set. It returns
// the step's decision, if any (ok), or an ErrDoubleDecision error naming the
// process, the tick and both values.
func (e *Env) decision(prior any, had bool) (v any, ok bool, err error) {
	d := e.decisions
	switch {
	case len(d) == 0:
		return nil, false, nil
	case !had && len(d) == 1:
		return d[0], true, nil
	case !had:
		prior, d = d[0], d[1:]
	}
	return nil, false, fmt.Errorf("%w: p%d at t=%d (%v, then %v)", ErrDoubleDecision, int(e.self), int64(e.now), prior, d[0])
}

type sendReq struct {
	to      dist.ProcID
	layer   Layer
	payload any
}

// OpDesc describes one shared-object operation: the object's key, the
// operation kind, its argument and, on a Return, its result. It is a fixed
// size value, so recording an operation boxes nothing. Its meaning belongs
// to the automaton (package register reads Kind as a register.OpKind).
type OpDesc struct {
	Key  int
	Kind uint8
	Arg  int64
	Ret  int64
}

// OpEvent is one record of a run's op log: process P invoked (or, when
// Return is set, completed) operation Op at tick T. Seq is the automaton's
// own correlation number, which pairs a Return with its Invoke.
type OpEvent struct {
	T      dist.Time
	P      dist.ProcID
	Seq    int64
	Return bool
	Op     OpDesc
}

// Self returns the identity of the stepping process.
func (e *Env) Self() dist.ProcID { return e.self }

// N returns the system size n.
func (e *Env) N() int { return e.n }

// All returns Π, the set of all processes.
func (e *Env) All() dist.ProcSet { return dist.FullSet(e.n) }

// Delivered returns the payload and sender of the message received in this
// step. ok is false for a null step (no delivery).
func (e *Env) Delivered() (payload any, from dist.ProcID, ok bool) {
	if e.delivered == nil {
		return nil, dist.None, false
	}
	return e.delivered.Payload, e.delivered.From, true
}

// DeliveredOwned reports whether the automaton may take ownership of the
// payload returned by Delivered once it has finished processing it — the
// receiving half of the send-buffer lease contract that lets automata pool
// their message payloads:
//
//   - A payload handed to Send is immutable from the moment of the call:
//     the channel (and, when the trace records messages, the trace) retain
//     it by reference. A sender that wants to reuse payload buffers must
//     therefore wait until the payload comes back to it through a
//     delivery whose DeliveredOwned is true.
//   - When DeliveredOwned reports true, the runtime guarantees that no
//     other component references the delivered payload after this step.
//     The Runner grants it on untraced runs (Config.DisableTrace), where
//     no trace holds a payload; operation records, which every run keeps,
//     carry the automaton's own descriptors, not payloads.
//   - On such runs sim does the counting: Send, Broadcast and BroadcastAll
//     add one reference per recipient to a RefCounted payload, and the
//     Runner adjusts the count for copies that fault injection drops or
//     duplicates and for queued copies it discards (RefCounted). A
//     recipient drops its reference once it has processed an owned
//     delivery, and the last one puts the payload back in its Pool
//     (PoolOf).
//   - When it reports false the payload must be treated as immutable
//     shared state, and nothing counts its references. The explorer always
//     reports false — its branches share pending messages, and a recycled
//     payload would mutate sibling states.
//
// Automata that never reuse payload buffers can ignore this entirely.
func (e *Env) DeliveredOwned() bool { return e.delivered != nil && e.owned }

// QueryFD queries the failure detector and returns H(p, t) for the step's
// time t. Repeated calls within one step return the same value (the model
// grants one query per step).
func (e *Env) QueryFD() any {
	if !e.fdQueried {
		if e.queryFD != nil {
			e.fdCache = e.queryFD()
		} else {
			e.fdCache = e.history.Output(e.self, e.now)
		}
		e.fdQueried = true
	}
	return e.fdCache
}

// Send sends payload to process `to` over the reliable channel. A send to
// a process outside 1..n goes nowhere.
func (e *Env) Send(to dist.ProcID, payload any) {
	if to < 1 || int(to) > e.n {
		return
	}
	e.lease(payload, 1)
	e.sends = append(e.sends, sendReq{to: to, layer: e.layer, payload: payload})
}

// lease counts k recipients of payload, on a run that leases payloads, when
// the payload is RefCounted (see DeliveredOwned).
func (e *Env) lease(payload any, k int) {
	if !e.owned {
		return
	}
	if rc, ok := payload.(RefCounted); ok {
		for range k {
			rc.AddRef()
		}
	}
}

// Broadcast sends payload to every process except the sender ("send to every
// process except p" in the paper's pseudo-code).
func (e *Env) Broadcast(payload any) {
	e.lease(payload, e.n-1)
	for q := dist.ProcID(1); int(q) <= e.n; q++ {
		if q != e.self {
			e.sends = append(e.sends, sendReq{to: q, layer: e.layer, payload: payload})
		}
	}
}

// BroadcastAll sends payload to every process including the sender ("send to
// all").
func (e *Env) BroadcastAll(payload any) {
	e.lease(payload, e.n)
	for q := dist.ProcID(1); int(q) <= e.n; q++ {
		e.sends = append(e.sends, sendReq{to: q, layer: e.layer, payload: payload})
	}
}

// Decide records the irrevocable decision of a task value. A process
// decides at most once: calling Decide twice in one step (directly or
// through two Stack layers), or again after an earlier decision, is a double
// decision. Run fails it with ErrDoubleDecision, and Explore reports it as a
// violation witness naming the process and both values. A process that
// recovers has forgotten its earlier decision and may decide again.
func (e *Env) Decide(v any) { e.decisions = append(e.decisions, v) }

// Invoke records the invocation of a shared-object operation (for
// linearizability checking). seq correlates the invocation with its Return.
// The record is stamped with the step's process and time, which the
// automaton itself never sees.
func (e *Env) Invoke(seq int64, op OpDesc) {
	e.ops = append(e.ops, OpEvent{T: e.now, P: e.self, Seq: seq, Op: op})
}

// Return records the response of a previously invoked operation.
func (e *Env) Return(seq int64, op OpDesc) {
	e.ops = append(e.ops, OpEvent{T: e.now, P: e.self, Seq: seq, Return: true, Op: op})
}

// Stack composes protocol layers into one automaton per the failure-detector
// reduction methodology of the paper: layers[0] is the bottom layer and
// queries the oracle; each layer i > 0 queries the emulated output of layer
// i−1, so every layer except the top must implement Emulator.
//
// Each runner step advances every layer once (bottom-up), which corresponds
// to a block of consecutive model steps of the same process — a legal
// schedule, so every property proved over all schedules still applies.
// Messages are routed to the layer that sent them.
type Stack struct {
	layers []Automaton
	subs   []Env // one reusable step context per layer
}

var _ Emulator = (*Stack)(nil)

// NewStack builds a stack from bottom to top. It panics if an inner layer is
// not an Emulator (that is a programming error in test/bench setup code, not
// a runtime condition).
func NewStack(layers ...Automaton) *Stack {
	if len(layers) == 0 {
		panic("sim: empty stack")
	}
	for i := 0; i < len(layers)-1; i++ {
		if _, ok := layers[i].(Emulator); !ok {
			panic("sim: inner stack layer must implement Emulator")
		}
	}
	s := &Stack{layers: layers, subs: make([]Env, len(layers))}
	for i := range s.subs {
		s.subs[i].layer = Layer(i)
		if i > 0 {
			// Bind the emulated-output query once, not per step.
			s.subs[i].queryFD = layers[i-1].(Emulator).Output
		}
	}
	return s
}

// Step advances every layer once. The delivered message (if any) is visible
// only to the layer it was addressed to. Every layer's Decide calls are the
// process's.
func (s *Stack) Step(e *Env) {
	// The bottom layer queries whatever failure detector the stack does.
	s.subs[0].queryFD, s.subs[0].history = e.queryFD, e.history
	for i, layer := range s.layers {
		var msg *Message
		if e.delivered != nil && e.delivered.Layer == Layer(i) {
			msg = e.delivered
		}
		sub := &s.subs[i]
		sub.pools = e.pools // every layer leases from the runner's pools
		sub.step(layer, e.self, e.n, e.now, msg, e.owned)
		e.sends = append(e.sends, sub.sends...)
		e.decisions = append(e.decisions, sub.decisions...)
		e.ops = append(e.ops, sub.ops...)
	}
}

// Layer returns the i-th layer (0 = bottom) for post-run state inspection.
func (s *Stack) Layer(i int) Automaton { return s.layers[i] }

// Output exposes the top layer's emulated output when the top layer is an
// Emulator (used when a whole stack emulates a failure detector).
func (s *Stack) Output() any {
	top := s.layers[len(s.layers)-1]
	if emu, ok := top.(Emulator); ok {
		return emu.Output()
	}
	return nil
}

// Recover forwards a process recovery to every Recoverable layer, so a
// layered automaton rebuilt after a crash sheds volatile per-layer state.
func (s *Stack) Recover() {
	for _, l := range s.layers {
		if rec, ok := l.(Recoverable); ok {
			rec.Recover()
		}
	}
}
