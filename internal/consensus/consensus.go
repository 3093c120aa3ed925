// Package consensus implements the baseline that anchors the "agreeing" end
// of the paper's spectrum: consensus (1-set agreement, the k = 1 extreme of
// k-set agreement) from Ω + Σ in asynchronous message passing — a
// Paxos-style ballot protocol whose quorums are the trusted sets of the
// quorum failure detector Σ and whose liveness comes from the eventual
// leader oracle Ω.
//
// Since deciding a single value solves k-set agreement for every k, this
// module shows what *stronger* failure information buys, complementing the
// paper's study of the weak end (σ, σₖ, anti-Ω).
package consensus

import (
	"fmt"
	"slices"

	"repro/internal/agreement"
	"repro/internal/dist"
	"repro/internal/sim"
)

// FD is the composite failure-detector output consumed by the protocol.
type FD struct {
	Leader  dist.ProcID  // the current Ω output
	Trusted dist.ProcSet // the current Σ output
}

// Oracle is the composite Ω+Σ history: the leader of fd.OmegaOracle paired
// with the trusted set of fd.NewSigma, Π at a crashed process. Before stab Ω
// rotates through the alive set (slot t mod |alive|) and Σ outputs that set;
// from stab on they give min(Correct) and Correct(F). NewOracle boxes every
// output, so Output neither allocates nor writes and one oracle may serve
// concurrent runs. The pattern must not change after NewOracle.
type Oracle struct {
	f    *dist.FailurePattern
	stab dist.Time
	// from holds the start of each alive-set interval below stab and outs
	// its outputs: per leader slot, an alive process's, then a crashed one's.
	from []dist.Time
	outs [][]any
	late [2]any // from stab on: alive, crashed
}

// NewOracle builds the composite Ω+Σ oracle for pattern f, stabilizing at
// stab.
func NewOracle(f *dist.FailurePattern, stab dist.Time) *Oracle {
	leader, pi := f.Correct().Min(), f.All()
	o := &Oracle{f: f, stab: stab, late: [2]any{FD{leader, f.Correct()}, FD{leader, pi}}}
	add := func(t dist.Time) {
		alive := f.AliveAt(t)
		outs := make([]any, 0, 2*max(alive.Len(), 1))
		for i := range max(alive.Len(), 1) {
			l := leader // an empty alive set falls back to the eventual leader
			if !alive.IsEmpty() {
				l = alive.Nth(i)
			}
			outs = append(outs, FD{l, alive}, FD{l, pi})
		}
		o.from, o.outs = append(o.from, t), append(o.outs, outs)
	}
	start := dist.Time(0)
	for _, x := range f.Transitions() {
		if x.T > start && x.T < stab {
			add(start)
			start = x.T
		}
	}
	if start < stab {
		add(start)
	}
	return o
}

// Output implements the history H(p, t).
func (o *Oracle) Output(p dist.ProcID, t dist.Time) any {
	crashed := 0
	if !o.f.Alive(p, t) {
		crashed = 1
	}
	if t >= o.stab {
		return o.late[crashed]
	}
	i, _ := slices.BinarySearch(o.from, t+1) // intervals starting at or before t
	outs := o.outs[i-1]
	return outs[2*(int(t)%(len(outs)/2))+crashed]
}

// Ballot identifies a proposal attempt; ballots of distinct processes never
// collide (b ≡ proposer−1 mod n).
type Ballot int64

// kind names what a frame carries.
type kind uint8

// Frame kinds: the two phases of a ballot (prepare/promise, accept/accepted)
// and the decision.
const (
	prepare kind = iota + 1
	promise
	accept
	accepted
	decide
)

// frame is the one consensus message: Kind says which fields it carries.
// Frames travel as pointers and are pooled under sim's send-buffer lease
// contract, as the store's frames are: on untraced runs
// (sim.Env.DeliveredOwned) every send counts one reference per recipient,
// and each recipient drops its reference once it has processed the frame,
// the last one handing it back to the runner's pool (sim.PoolOf). A trace
// retains every payload, so on traced runs nothing is counted and the pool
// never fills.
type frame struct {
	B        Ballot
	Accepted Ballot // promise: highest ballot whose value the acceptor adopted; 0 = none
	Val      agreement.Value
	pool     *sim.Pool[frame] // the pool it was leased from
	refs     int32
	Kind     kind
}

var _ sim.RefCounted = (*frame)(nil)

// AddRef and DropRef implement sim.RefCounted.
func (f *frame) AddRef() { f.refs++ }
func (f *frame) DropRef() {
	if f.refs--; f.refs <= 0 {
		f.pool.Put(f)
	}
}

// lease leases a frame of kind k carrying b, acc and v from the runner's
// pool.
func lease(e *sim.Env, k kind, b, acc Ballot, v agreement.Value) *frame {
	p := sim.PoolOf[frame](e)
	f := p.Get()
	*f = frame{B: b, Accepted: acc, Val: v, pool: p, Kind: k}
	return f
}

// String renders the frame's kind and fields, never its pool or its
// address, so a traced run renders the same text on every runner.
func (f *frame) String() string {
	switch f.Kind {
	case prepare:
		return fmt.Sprintf("prepare(b=%d)", int64(f.B))
	case promise:
		return fmt.Sprintf("promise(b=%d acc=%d v=%d)", int64(f.B), int64(f.Accepted), int64(f.Val))
	case accept:
		return fmt.Sprintf("accept(b=%d v=%d)", int64(f.B), int64(f.Val))
	case accepted:
		return fmt.Sprintf("accepted(b=%d)", int64(f.B))
	case decide:
		return fmt.Sprintf("decide(v=%d)", int64(f.Val))
	}
	return fmt.Sprintf("frame(kind=%d)", uint8(f.Kind))
}

// Node is the per-process consensus automaton.
type Node struct {
	self dist.ProcID
	n    int
	v    agreement.Value

	// Acceptor state.
	promised Ballot
	accB     Ballot
	accV     agreement.Value

	// Proposer state.
	ballot   Ballot
	phase    int // 0 idle, 1 collecting promises, 2 collecting accepts
	promises dist.ProcSet
	bestB    Ballot
	bestV    agreement.Value
	accepts  dist.ProcSet
	stall    int // own steps toward the next retry (retryEvery)

	decided    bool
	decidedVal agreement.Value
}

var _ sim.Rewinder = (*Node)(nil)

// retryEvery is how many of its own steps a leader waits for a quorum
// before retrying with a higher ballot, and a decided process waits between
// decide re-broadcasts.
const retryEvery = 24

// Program builds a Program from per-process proposals (index ProcID-1). It
// only reads them, so it serves any number of runners at once.
func Program(proposals []agreement.Value) sim.Program {
	return func(p dist.ProcID, n int) sim.Automaton {
		return &Node{self: p, n: n, v: proposals[p-1]}
	}
}

// Rewind implements sim.Rewinder: everything but the process's identity,
// system size and proposal is per-run state, and starts at zero.
func (a *Node) Rewind() { *a = Node{self: a.self, n: a.n, v: a.v} }

// Step implements sim.Automaton.
func (a *Node) Step(e *sim.Env) {
	if payload, from, ok := e.Delivered(); ok {
		a.onMessage(e, payload, from)
	}
	if a.decided {
		// Under message loss a decide frame can vanish, stranding a peer that
		// missed the quorum traffic — and a recovered process rejoins with no
		// memory of the decision at all. Re-broadcast the decided value at
		// the stall-retry cadence; only the single chosen value is ever
		// re-sent, so agreement cannot be disturbed, and fault-free runs end
		// before the first re-broadcast fires (SweepConfig.SimConfig stops a
		// run once every correct and recovered process has decided).
		a.stall++
		if a.stall >= retryEvery {
			a.stall = 0
			e.BroadcastAll(lease(e, decide, 0, 0, a.decidedVal))
		}
		return
	}
	out, ok := e.QueryFD().(FD)
	if !ok {
		return
	}
	if out.Leader != a.self {
		a.phase = 0 // yield proposer role; acceptor duties continue
		return
	}
	switch a.phase {
	case 0:
		a.newBallot(e)
	case 1:
		if !out.Trusted.IsEmpty() && out.Trusted.SubsetOf(a.promises) {
			v := a.v
			if a.bestB > 0 {
				v = a.bestV // adopt the value of the highest accepted ballot
			}
			a.phase = 2
			a.accepts = dist.ProcSet{}
			a.bestV = v
			a.selfAccept(a.ballot, v)
			e.Broadcast(lease(e, accept, a.ballot, 0, v))
			return
		}
		a.maybeRetry(e)
	case 2:
		if !out.Trusted.IsEmpty() && out.Trusted.SubsetOf(a.accepts) {
			e.BroadcastAll(lease(e, decide, 0, 0, a.bestV))
			a.decide(e, a.bestV)
			return
		}
		a.maybeRetry(e)
	}
}

func (a *Node) onMessage(e *sim.Env, payload any, from dist.ProcID) {
	m, ok := payload.(*frame)
	if !ok {
		return
	}
	switch m.Kind {
	case prepare:
		if m.B > a.promised {
			a.promised = m.B
		}
		if m.B >= a.promised {
			e.Send(from, lease(e, promise, m.B, a.accB, a.accV))
		}
	case promise:
		if a.phase == 1 && m.B == a.ballot {
			a.promises = a.promises.Add(from)
			if m.Accepted > a.bestB {
				a.bestB, a.bestV = m.Accepted, m.Val
			}
		}
	case accept:
		if m.B >= a.promised {
			a.promised = m.B
			a.accB, a.accV = m.B, m.Val
			e.Send(from, lease(e, accepted, m.B, 0, 0))
		}
	case accepted:
		if a.phase == 2 && m.B == a.ballot {
			a.accepts = a.accepts.Add(from)
		}
	case decide:
		if !a.decided {
			e.BroadcastAll(lease(e, decide, 0, 0, m.Val))
			a.decide(e, m.Val)
		}
	}
	// On untraced runs the runner hands the delivered frame to this node,
	// which drops its reference now that it has read the frame.
	if e.DeliveredOwned() {
		m.DropRef()
	}
}

func (a *Node) newBallot(e *sim.Env) {
	// Ballots of process p are p, p+n, p+2n, ...: unique across processes.
	next := a.ballot + Ballot(a.n)
	if next <= a.promised {
		next += (Ballot(int64(a.promised)-int64(next))/Ballot(a.n) + 1) * Ballot(a.n)
	}
	if a.ballot == 0 {
		next = Ballot(a.self)
		for next <= a.promised {
			next += Ballot(a.n)
		}
	}
	a.ballot = next
	a.phase = 1
	a.promises = dist.ProcSet{}
	a.bestB, a.bestV = 0, 0
	a.stall = 0
	a.selfPromise(next)
	e.Broadcast(lease(e, prepare, next, 0, 0))
}

// selfPromise applies the proposer's own acceptor vote locally.
func (a *Node) selfPromise(b Ballot) {
	if b > a.promised {
		a.promised = b
	}
	a.promises = a.promises.Add(a.self)
	if a.accB > a.bestB {
		a.bestB, a.bestV = a.accB, a.accV
	}
}

func (a *Node) selfAccept(b Ballot, v agreement.Value) {
	if b >= a.promised {
		a.promised = b
		a.accB, a.accV = b, v
	}
	a.accepts = a.accepts.Add(a.self)
}

func (a *Node) maybeRetry(e *sim.Env) {
	a.stall++
	if a.stall >= retryEvery {
		a.newBallot(e)
	}
}

func (a *Node) decide(e *sim.Env, v agreement.Value) {
	e.Decide(v)
	a.decided = true
	a.decidedVal = v
	a.stall = 0
}
