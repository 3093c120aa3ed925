// Package trace records the observable events of a simulated run: process
// steps, message sends, decisions, emulated failure-detector output changes
// and shared-object operation invocations/responses.
//
// Traces serve two purposes in this repository:
//
//  1. Emulated failure-detector histories. When an algorithm emulates a
//     failure detector (Figures 3, 5 and 6), the emulated history H(p, t) is
//     the recorded sequence of output-variable changes, which the
//     failure-detector class checkers judge through fd.RecordedHistory.
//  2. Indistinguishability arguments. The impossibility proofs of the paper
//     (Lemmas 7, 11 and 15) construct pairs of runs that some process cannot
//     tell apart; LocalView and IndistinguishableTo verify our scripted
//     reconstructions really are indistinguishable.
//
// The agreement and linearizability checkers do not read traces: they
// read a run's sim.Result and its op log.
package trace

import (
	"fmt"
	"reflect"

	"repro/internal/dist"
)

// Kind classifies an event.
type Kind uint8

// Event kinds.
const (
	// StepKind records one atomic step of a process: the delivered message
	// (if any) and the failure-detector value the process observed.
	StepKind Kind = iota + 1
	// SendKind records a message send performed during a step.
	SendKind
	// DecideKind records an irrevocable decision of a task value.
	DecideKind
	// EmuKind records a change of an emulated failure detector's output
	// variable at a process.
	EmuKind
	// InvokeKind records the invocation of a shared-object operation.
	InvokeKind
	// ReturnKind records the response of a shared-object operation.
	ReturnKind
	// CrashKind records a process crash becoming effective.
	CrashKind
	// DropKind records a message send discarded by fault-injected loss (the
	// message was never enqueued; there is no matching delivery).
	DropKind
	// RecoverKind records a crashed process recovering: from this tick on it
	// takes steps again with a fresh zero-value automaton (volatile state
	// lost) and an empty inbox.
	RecoverKind
)

// String returns a short name for the kind.
func (k Kind) String() string {
	switch k {
	case StepKind:
		return "step"
	case SendKind:
		return "send"
	case DecideKind:
		return "decide"
	case EmuKind:
		return "emu"
	case InvokeKind:
		return "invoke"
	case ReturnKind:
		return "return"
	case CrashKind:
		return "crash"
	case DropKind:
		return "drop"
	case RecoverKind:
		return "recover"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Event is one recorded occurrence. Field use depends on Kind:
//
//   - StepKind: P stepped at T; Delivered reports whether a message was
//     received, and if so From/Layer/Payload describe it; FD is the
//     failure-detector value observed during the step.
//   - SendKind: P sent Payload to To on Layer at time T (Seq is the message
//     sequence number).
//   - DropKind: P's send of Payload to To on Layer at T was discarded by
//     fault-injected loss (Seq is the sequence number the message carried).
//   - DecideKind: P decided Payload at T.
//   - EmuKind: P's emulated failure-detector output changed to Payload at T.
//   - InvokeKind/ReturnKind: P invoked/completed an operation described by
//     Payload (a sim.OpDesc in runner traces) at T; Seq correlates the pair.
//   - CrashKind: P crashed at T.
//   - RecoverKind: P recovered at T.
type Event struct {
	T         dist.Time
	P         dist.ProcID
	Kind      Kind
	Delivered bool
	From      dist.ProcID
	To        dist.ProcID
	Layer     int8
	Seq       int64
	Payload   any
	FD        any
}

// Trace is an append-only event log of a single run.
type Trace struct {
	events []Event
}

// New returns an empty trace with room for sizeHint events, so a run whose
// length is known roughly in advance does not regrow the trace as it goes.
func New(sizeHint int) *Trace { return &Trace{events: make([]Event, 0, sizeHint)} }

// Append adds an event to the trace.
func (tr *Trace) Append(e Event) { tr.events = append(tr.events, e) }

// Events returns the recorded events in order. The returned slice is the
// trace's backing storage; callers must not modify it.
func (tr *Trace) Events() []Event { return tr.events }

// Len returns the number of recorded events.
func (tr *Trace) Len() int { return len(tr.events) }

// Filter returns the events satisfying keep, in order.
func (tr *Trace) Filter(keep func(Event) bool) []Event {
	var out []Event
	for _, e := range tr.events {
		if keep(e) {
			out = append(out, e)
		}
	}
	return out
}

// Observation is what a process can locally observe in one of its steps: the
// delivered message (if any) and the failure-detector value. Two runs are
// indistinguishable to a process exactly when its observation sequences
// coincide (its own state transitions are then identical, the automata being
// deterministic).
type Observation struct {
	Delivered bool
	From      dist.ProcID
	Layer     int8
	Payload   any
	FD        any
}

// LocalView extracts p's observation sequence from the trace.
func LocalView(tr *Trace, p dist.ProcID) []Observation {
	var out []Observation
	for _, e := range tr.events {
		if e.Kind != StepKind || e.P != p {
			continue
		}
		out = append(out, Observation{
			Delivered: e.Delivered,
			From:      e.From,
			Layer:     e.Layer,
			Payload:   e.Payload,
			FD:        e.FD,
		})
	}
	return out
}

// IndistinguishableTo reports whether the first `steps` steps of process p
// look identical in the two traces (steps < 0 compares the shorter prefix of
// both). Payloads and FD values are compared with reflect.DeepEqual.
func IndistinguishableTo(a, b *Trace, p dist.ProcID, steps int) bool {
	va, vb := LocalView(a, p), LocalView(b, p)
	n := len(va)
	if len(vb) < n {
		n = len(vb)
	}
	if steps >= 0 {
		if len(va) < steps || len(vb) < steps {
			return false
		}
		n = steps
	}
	for i := 0; i < n; i++ {
		if !obsEqual(va[i], vb[i]) {
			return false
		}
	}
	return true
}

func obsEqual(x, y Observation) bool {
	if x.Delivered != y.Delivered || x.From != y.From || x.Layer != y.Layer {
		return false
	}
	return reflect.DeepEqual(x.Payload, y.Payload) && reflect.DeepEqual(x.FD, y.FD)
}

// OutputAt returns the emulated failure-detector output of p at time t
// according to the recorded EmuKind events (the value set by the last change
// at or before t). ok is false when p has no recorded output by t.
func OutputAt(tr *Trace, p dist.ProcID, t dist.Time) (any, bool) {
	var (
		val   any
		found bool
	)
	for _, e := range tr.events {
		if e.Kind != EmuKind || e.P != p {
			continue
		}
		if e.T > t {
			break
		}
		val, found = e.Payload, true
	}
	return val, found
}
