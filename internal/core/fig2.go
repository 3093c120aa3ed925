package core

import (
	"repro/internal/agreement"
	"repro/internal/dist"
	"repro/internal/sim"
)

// Message payloads of the Figure 2 and Figure 4 algorithms.
type (
	// DecidedVal is the (D, w) message: w has been decided.
	DecidedVal struct{ W agreement.Value }
	// Phase1Val is Figure 2's (1, Me) message.
	Phase1Val struct{ W agreement.Value }
	// Phase2Val is Figure 2's (2, You) message; W = NoValue encodes (2, ⊥).
	Phase2Val struct{ W agreement.Value }
)

// Fig2 is the algorithm of Figure 2: set agreement ((n−1)-set agreement)
// using failure detector σ.
//
// A process whose σ module outputs ⊥ is non-active: it broadcasts its value
// as decided and decides it. The two active processes run two tasks in
// parallel: Task 1 adopts any (D, w) it receives, and Task 2 is a two-phase
// exchange between the actives in which at least one of their two values is
// eliminated (Theorem 4).
type Fig2 struct {
	self dist.ProcID
	v    agreement.Value

	phase int // 0: consult σ; 1: Phase 1 wait; 2: Phase 2 wait; 3: decided
	me    agreement.Value
	you   agreement.Value

	gotD bool
	dVal agreement.Value
	got1 bool
	v1   agreement.Value
	got2 bool
	v2   agreement.Value
}

var _ sim.Rewinder = (*Fig2)(nil)

// NewFig2 returns the Figure 2 automaton for process self proposing v.
func NewFig2(self dist.ProcID, v agreement.Value) *Fig2 {
	return &Fig2{self: self, v: v, me: agreement.NoValue, you: agreement.NoValue}
}

// Rewind implements sim.Rewinder: it keeps the process and its proposal and
// restores the state NewFig2 builds.
func (a *Fig2) Rewind() {
	*a = Fig2{self: a.self, v: a.v, me: agreement.NoValue, you: agreement.NoValue}
}

// Fig2Program builds a Program from per-process proposals (index ProcID-1).
func Fig2Program(proposals []agreement.Value) sim.Program {
	return func(p dist.ProcID, n int) sim.Automaton {
		return NewFig2(p, proposals[p-1])
	}
}

// Step implements sim.Automaton.
func (a *Fig2) Step(e *sim.Env) {
	if payload, _, ok := e.Delivered(); ok {
		a.absorb(payload)
	}
	switch a.phase {
	case 0:
		out, ok := e.QueryFD().(SigmaOut)
		if !ok {
			return // foreign failure detector; stay put (exercised by Lemma 15 retargeting)
		}
		if out.Bottom {
			// Non-active: lines 2-5.
			e.Broadcast(DecidedVal{W: a.v})
			a.decide(e, a.v)
			return
		}
		// Active: start Task 2, Phase 1 (lines 15-17).
		a.me = a.v
		e.Broadcast(Phase1Val{W: a.me})
		a.phase = 1
	case 1:
		if a.task1(e) {
			return
		}
		if a.got1 {
			// Line 19: (1, w) received.
			a.you = a.v1
			e.Broadcast(Phase2Val{W: a.you})
			a.phase = 2
			return
		}
		if a.fdIsSelfOnly(e) {
			// Line 18: {p} = queryFD(); You remains ⊥.
			e.Broadcast(Phase2Val{W: a.you})
			a.phase = 2
		}
	case 2:
		if a.task1(e) {
			return
		}
		if a.got2 {
			// Line 23: (2, ⊥) received ⇒ Me ← ⊥.
			if a.v2 == agreement.NoValue {
				a.me = agreement.NoValue
			}
			a.decideMax(e)
			return
		}
		if a.fdIsSelfOnly(e) {
			a.decideMax(e)
		}
	}
}

func (a *Fig2) absorb(payload any) {
	switch m := payload.(type) {
	case DecidedVal:
		if !a.gotD {
			a.gotD, a.dVal = true, m.W
		}
	case Phase1Val:
		if !a.got1 {
			a.got1, a.v1 = true, m.W
		}
	case Phase2Val:
		if !a.got2 {
			a.got2, a.v2 = true, m.W
		}
	}
}

// task1 is Figure 2's Task 1 (lines 8-13): adopt a received decided value.
func (a *Fig2) task1(e *sim.Env) bool {
	if !a.gotD {
		return false
	}
	e.Broadcast(DecidedVal{W: a.dVal})
	a.decide(e, a.dVal)
	return true
}

func (a *Fig2) fdIsSelfOnly(e *sim.Env) bool {
	out, ok := e.QueryFD().(SigmaOut)
	return ok && !out.Bottom && out.Trusted == dist.NewProcSet(a.self)
}

// decideMax is Phase 3 (lines 24-27): decide max{Me, You} with ⊥ < v.
func (a *Fig2) decideMax(e *sim.Env) {
	w := a.me
	if a.you > w {
		w = a.you
	}
	a.decide(e, w)
}

func (a *Fig2) decide(e *sim.Env, v agreement.Value) {
	e.Decide(v)
	a.phase = 3
}

// Snapshot implements sim.Snapshotter, enabling exhaustive exploration of
// Figure 2 (the automaton state is a flat value).
func (a *Fig2) Snapshot() sim.Automaton {
	cp := *a
	return &cp
}

// Explorer state-encoding tags: each payload type that can share a message
// queue gets a distinct leading byte (see sim.StateEncoder).
const (
	tagDecidedVal = 0x01
	tagPhase1Val  = 0x02
	tagPhase2Val  = 0x03
	tagAnnVal     = 0x04
)

// AppendState implements sim.StateEncoder.
func (m DecidedVal) AppendState(b []byte) []byte {
	return sim.AppendUint64(append(b, tagDecidedVal), uint64(m.W))
}

// AppendState implements sim.StateEncoder.
func (m Phase1Val) AppendState(b []byte) []byte {
	return sim.AppendUint64(append(b, tagPhase1Val), uint64(m.W))
}

// AppendState implements sim.StateEncoder.
func (m Phase2Val) AppendState(b []byte) []byte {
	return sim.AppendUint64(append(b, tagPhase2Val), uint64(m.W))
}

// AppendState implements sim.StateEncoder: the full automaton state, putting
// Figure 2 exploration on the binary-keyed fast path.
func (a *Fig2) AppendState(b []byte) []byte {
	var flags byte
	if a.gotD {
		flags |= 1
	}
	if a.got1 {
		flags |= 2
	}
	if a.got2 {
		flags |= 4
	}
	b = append(b, byte(a.self), byte(a.self>>8), byte(a.phase), flags)
	b = sim.AppendUint64(b, uint64(a.v))
	b = sim.AppendUint64(b, uint64(a.me))
	b = sim.AppendUint64(b, uint64(a.you))
	b = sim.AppendUint64(b, uint64(a.dVal))
	b = sim.AppendUint64(b, uint64(a.v1))
	return sim.AppendUint64(b, uint64(a.v2))
}
