package register

import (
	"fmt"
	"math"
	"unsafe"

	"repro/internal/dist"
	"repro/internal/fd"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// KeyedOp is one scripted client operation against the keyed register store.
type KeyedOp struct {
	Key  int
	Kind OpKind
	Arg  Value // written value (WriteOp only)
}

// String renders the op.
func (o KeyedOp) String() string {
	if o.Kind == ReadOp {
		return fmt.Sprintf("read(k%d)", o.Key)
	}
	return fmt.Sprintf("write(k%d,%d)", o.Key, int64(o.Arg))
}

// Store protocol messages. Every request or reply is an entry correlated by
// (Key, RID), and every message is one storeFrame whose sections carry the
// entries by kind: Q query requests, S store requests, QR query replies, SR
// store acks. Three rules fix message boundaries and send order — and send
// order sets the message seq, which sim.FaultPlan decisions hash:
//
//  1. Without piggybacking a replica answers while it processes a delivery,
//     before its own client requests go out: one reply frame per delivery,
//     sent at once.
//  2. Without piggybacking a node's requests travel as one snapshot frame
//     per (shard, kind, step), shared by every member of the shard's replica
//     group (a request never reaches a process outside its shard's group).
//  3. With piggybacking (StoreConfig.Piggyback, the E22 row) everything a
//     node has for one destination in one step — requests of every shard
//     plus the step's replies — folds into one frame per destination, sent
//     in first-touch order: shards ascending, then members ascending, then
//     the reply destination.
//
// Every frame leaves in the step that filled it.
//
// Frames travel as pointers and are pooled: on untraced runs (every
// StoreSweep run) each send counts one reference per recipient, the
// receiver owns a delivered frame (sim.Env.DeliveredOwned), and the last
// recipient to process it recycles it into the runner's pool (sim.PoolOf),
// which is what makes the steady-state step path allocation-free. A trace
// retains every payload, so on traced runs nothing is counted, and the
// pool simply never fills.
type (
	queryEntry struct {
		Key int
		RID int64
		// CTS piggybacks the client's confirmed timestamp for Key — the
		// highest ts it knows reached a full quorum (FastReads only; zero
		// otherwise).
		CTS Timestamp
	}
	queryRepEntry struct {
		Key int
		RID int64
		TS  Timestamp
		V   Value
		// CTS piggybacks the replica's per-key confirmed timestamp
		// (FastReads only; zero otherwise). Invariant: CTS ≤ TS at the
		// answering replica.
		CTS Timestamp
	}
	storeEntry struct {
		Key int
		RID int64
		TS  Timestamp
		V   Value
	}
	storeRepEntry struct {
		Key int
		RID int64
	}
	storeFrame struct {
		Q    []queryEntry
		S    []storeEntry
		QR   []queryRepEntry
		SR   []storeRepEntry
		refs int32
		pool *sim.Pool[storeFrame] // the pool it was leased from
	}
)

// storeFrame implements sim.RefCounted: the last reference dropped, by a
// recipient or by the runner, recycles the frame into its pool.
func (f *storeFrame) AddRef() { f.refs++ }
func (f *storeFrame) DropRef() {
	if f.refs--; f.refs <= 0 {
		f.pool.Put(f)
	}
}

// leaseFrame leases an empty frame from the runner's pool. A recycled frame
// keeps its sections' capacities.
func leaseFrame(e *sim.Env) *storeFrame {
	p := sim.PoolOf[storeFrame](e)
	f := p.Get()
	f.Q, f.S, f.QR, f.SR = f.Q[:0], f.S[:0], f.QR[:0], f.SR[:0]
	f.pool = p
	return f
}

// DefaultStallSteps is the adaptive controller's default backpressure
// threshold: consecutive client steps a shard may hold outstanding
// operations without completing any before its window is halved.
const DefaultStallSteps = 16

// DefaultRTO is the default initial retransmission timeout, in the client's
// own steps. It sits well above a healthy request/reply round trip (a few
// client steps under the random scheduler), so failure-free runs never
// retransmit — retransmission is pay-only-on-fault.
const DefaultRTO = 32

// StoreConfig parameterizes the keyed register store.
type StoreConfig struct {
	// Keys is the number of independent S-registers served by the store;
	// keys are the dense indices 0..Keys-1.
	Keys int
	// Shards partitions the key space across disjoint replica groups (key k
	// belongs to shard k mod Shards; process p replicates shard (p-1) mod
	// Shards). 0 or 1 keeps a single shard replicated by every process —
	// the pre-sharding store.
	Shards int
	// Window is the client pipelining depth per destination shard: how many
	// operations a client may have outstanding at once toward one shard,
	// always on distinct keys (an op whose key is already in flight waits,
	// preserving per-key program order; an op whose shard's window is full
	// waits without blocking other shards). Must be ≥ 1; 1 disables
	// pipelining. With AdaptiveWindow it is the controller's start value.
	Window int
	// Piggyback folds all of a step's same-destination traffic — query and
	// store request snapshots across shards plus the step's pending replies —
	// into one combined frame per (src, dst) pair (E22).
	Piggyback bool
	// AdaptiveWindow replaces the fixed per-shard window with an AIMD
	// controller per (client, shard): the window grows by one per completed
	// window of operations up to MaxWindow and halves when a shard holds
	// outstanding operations for StallSteps consecutive client steps
	// without completing any (crashed-group backpressure), so a degraded
	// shard's window decays to 1 instead of pinning client effort (E23).
	AdaptiveWindow bool
	// MaxWindow caps adaptive growth. 0 defaults to 4×Window; a non-zero
	// value must be ≥ Window and requires AdaptiveWindow.
	MaxWindow int
	// StallSteps is the controller's backpressure threshold. 0 defaults to
	// DefaultStallSteps; a non-zero value requires AdaptiveWindow.
	StallSteps int
	// Retransmit enables per-operation retransmission: an outstanding
	// operation whose current phase has waited RTO client steps without
	// completing re-sends its phase request to the shard group, doubling its
	// timeout up to MaxRTO (capped exponential backoff — an op against a
	// partitioned shard parks at the probe rate and resumes after heal).
	// Replies are deduplicated by (key, rid, phase) and replicas re-answer
	// idempotently, so retransmission and fault-injected duplication are
	// safe under the ABD protocol. Off, a lost message stalls its op forever
	// (the paper's reliable-channel assumption).
	Retransmit bool
	// RTO is the initial retransmission timeout in client steps. 0 defaults
	// to DefaultRTO; a non-zero value must be ≥ 1 and requires Retransmit.
	RTO int
	// MaxRTO caps the exponential backoff. 0 defaults to 8×RTO; a non-zero
	// value must be ≥ RTO and requires Retransmit.
	MaxRTO int
	// OpenLoop switches clients from closed-loop operation (a new op may
	// start whenever its shard's window has room) to open-loop arrivals:
	// scripted op i becomes *eligible* at a seeded arrival step of the
	// client's own step clock, and per-op latency is measured from that
	// arrival — queueing delay included — so offered load beyond the window
	// capacity (overload) becomes an observable regime instead of an
	// impossible one.
	OpenLoop bool
	// ArrivalGap is the mean inter-arrival gap between consecutive scripted
	// ops of one client, in the client's own steps. 0 defaults to 1 (ops
	// arrive back to back — maximum offered load); requires OpenLoop.
	ArrivalGap int
	// ArrivalJitter draws exponential-ish per-op gaps with mean ArrivalGap
	// from a splitmix-style pure hash of (ArrivalSeed, client, op index) —
	// the sim.FaultPlan idiom, no mutable RNG — so arrival schedules and
	// sweep aggregates stay bit-identical across worker counts. Requires
	// OpenLoop.
	ArrivalJitter bool
	// ArrivalSeed decorrelates the jittered arrival schedule from the
	// workload and scheduler seeds. Requires OpenLoop.
	ArrivalSeed int64
	// FastReads enables the one-phase ABD read optimization: a read whose
	// phase-1 quorum replies unanimously with one timestamp completes
	// immediately — the value is provably already stored at that quorum,
	// so the write-back round is pure waste and is elided. Additionally
	// every replica tracks a per-key *confirmed* timestamp — the highest
	// ts known to have reached a full quorum — piggybacked at zero
	// marginal cost on the existing query/query-reply entries (the CTS
	// fields), so a non-unanimous quorum whose maximum ts is already
	// confirmed also elides the write-back. Confirmation originates only
	// at clients (a completed phase 2, or a unanimous fast read) — never
	// at a replica merely receiving a store request, which may be a
	// crashed writer's partial phase 2 that no quorum holds. Reads that
	// cannot elide fall back to the standard write-back unchanged (timers
	// and latency origins intact). Off, the wire traffic is byte-identical
	// to a build without the feature; on, it composes with piggybacking,
	// open-loop arrivals, retransmission and fault injection, so no
	// combination is rejected.
	FastReads bool
}

func (c StoreConfig) window() int {
	if c.Window < 1 {
		return 1 // newStoreNode trusts its arguments; validated paths reject this
	}
	return c.Window
}

func (c StoreConfig) shards() int {
	if c.Shards < 1 {
		return 1
	}
	return c.Shards
}

func (c StoreConfig) maxWindow() int {
	if c.MaxWindow > 0 {
		return c.MaxWindow
	}
	return 4 * c.window()
}

func (c StoreConfig) stallSteps() int {
	if c.StallSteps > 0 {
		return c.StallSteps
	}
	return DefaultStallSteps
}

func (c StoreConfig) rto() int {
	if c.RTO > 0 {
		return c.RTO
	}
	return DefaultRTO
}

func (c StoreConfig) maxRTO() int {
	if c.MaxRTO > 0 {
		return c.MaxRTO
	}
	return 8 * c.rto()
}

func (c StoreConfig) arrivalGap() int {
	if c.ArrivalGap > 0 {
		return c.ArrivalGap
	}
	return 1
}

// arrivalGapAt returns the inter-arrival gap preceding scripted op idx of
// client self: the fixed mean, or an exponential-ish jittered draw with that
// mean (0-step gaps model bursts; the 53-bit hash bounds the tail at ~37×).
// The draw is a pure function of (ArrivalSeed, client, index), never of
// execution order, which keeps sweeps bit-identical across worker counts.
func (c StoreConfig) arrivalGapAt(self dist.ProcID, idx int) int64 {
	g := int64(c.arrivalGap())
	if !c.ArrivalJitter {
		return g
	}
	u := float64(sim.Mix(uint64(c.ArrivalSeed)*0xD1342543DE82EF95+uint64(self), uint64(idx))>>11) / (1 << 53)
	return int64(-math.Log1p(-u)*float64(g) + 0.5)
}

// EffectiveMaxWindow returns the adaptive controller's growth cap after
// defaulting: MaxWindow when set, else 4×Window.
func (c StoreConfig) EffectiveMaxWindow() int { return c.maxWindow() }

// EffectiveArrivalGap reports the mean inter-arrival gap open-loop clients
// use after defaulting (ArrivalGap, or 1 when unset) — for human-facing
// reports.
func (c StoreConfig) EffectiveArrivalGap() int { return c.arrivalGap() }

// Validate rejects configurations that would otherwise produce a silently
// empty or undefined run: a non-positive key space, a window below 1, a
// shard count the n-process system cannot host, or controller knobs without
// the controller.
func (c StoreConfig) Validate(n int) error {
	_, err := c.ShardMap(n)
	return err
}

// ShardMap validates the whole configuration and builds the canonical shard
// map the store uses in an n-process system (see NewShardMap) — the single
// construction-time gate every store entry point goes through.
func (c StoreConfig) ShardMap(n int) (*ShardMap, error) {
	if c.Keys < 1 {
		return nil, fmt.Errorf("register: store needs Keys ≥ 1, got %d", c.Keys)
	}
	if c.Window < 1 {
		return nil, fmt.Errorf("register: store needs Window ≥ 1, got %d", c.Window)
	}
	if c.Shards < 0 {
		return nil, fmt.Errorf("register: store shard count %d is negative", c.Shards)
	}
	if c.MaxWindow < 0 {
		return nil, fmt.Errorf("register: store MaxWindow %d is negative", c.MaxWindow)
	}
	if c.StallSteps < 0 {
		return nil, fmt.Errorf("register: store StallSteps %d is negative", c.StallSteps)
	}
	if !c.AdaptiveWindow && (c.MaxWindow != 0 || c.StallSteps != 0) {
		return nil, fmt.Errorf("register: MaxWindow/StallSteps require AdaptiveWindow")
	}
	if c.AdaptiveWindow && c.MaxWindow != 0 && c.MaxWindow < c.Window {
		return nil, fmt.Errorf("register: MaxWindow %d below the start Window %d", c.MaxWindow, c.Window)
	}
	if c.RTO < 0 {
		return nil, fmt.Errorf("register: store RTO %d is negative", c.RTO)
	}
	if c.MaxRTO < 0 {
		return nil, fmt.Errorf("register: store MaxRTO %d is negative", c.MaxRTO)
	}
	if !c.Retransmit && (c.RTO != 0 || c.MaxRTO != 0) {
		return nil, fmt.Errorf("register: RTO/MaxRTO require Retransmit")
	}
	if c.Retransmit && c.MaxRTO != 0 && c.MaxRTO < c.rto() {
		return nil, fmt.Errorf("register: MaxRTO %d below the initial RTO %d", c.MaxRTO, c.rto())
	}
	if c.ArrivalGap < 0 {
		return nil, fmt.Errorf("register: store ArrivalGap %d is negative", c.ArrivalGap)
	}
	if !c.OpenLoop && (c.ArrivalGap != 0 || c.ArrivalJitter || c.ArrivalSeed != 0) {
		return nil, fmt.Errorf("register: ArrivalGap/ArrivalJitter/ArrivalSeed require OpenLoop")
	}
	return NewShardMap(n, c.Keys, c.shards())
}

// storeOp is one outstanding client operation: per-key quorum tracking with
// the same two ABD phases as the single-register Node, quorums drawn from
// the key's shard group.
type storeOp struct {
	key     int
	shard   int
	rid     int64
	kind    OpKind
	arg     Value
	seq     int64
	phase   uint8 // 1 query phase, 2 store phase
	acks    dist.ProcSet
	best    Timestamp
	bestVal Value

	// Fast-read quorum tracking (FastReads only): sawReply marks that at
	// least one phase-1 reply (including the local self-answer) was
	// credited, diverged that two credited replies carried different
	// timestamps, and bestConf the highest confirmed ts piggybacked on the
	// replies. The replica invariant conf ≤ ts gives bestConf ≤ best, so
	// "the maximum ts is confirmed" is exactly bestConf == best.
	sawReply bool
	diverged bool
	bestConf Timestamp

	// faulted marks an op that paid at least one retransmission — the
	// fault-exposure tag splitting the latency histograms. Partition-parked
	// ops keep retransmitting while parked (RTO ≪ partition spans), so this
	// subsumes "parked behind a partition".
	faulted bool

	// Retransmission timer (Retransmit only): the client step the current
	// phase's request was last sent at, and the current timeout, doubling up
	// to MaxRTO. Both reset on phase transition.
	lastSend int64
	rto      int

	// Latency origin in client steps: the step the op started (closed
	// loop), or its scripted arrival step (open loop — queueing delay
	// between arrival and start counts toward the measured latency).
	invoke int64
}

// queuedOp is one not-yet-started scripted op in a per-shard client queue,
// carrying its open-loop arrival step (0 under closed loop).
type queuedOp struct {
	op      KeyedOp
	arrival int64
}

// shardWin is the AIMD controller state of one (client, shard) pair.
type shardWin struct {
	cur   int // current window
	acked int // completions since the last additive increase
	idle  int // consecutive client steps with outstanding ops, none completed
}

// StoreNode is the per-process automaton of the sharded keyed register
// store: one ABD replica for every key of the shards the process belongs to
// plus, at members of S, a pipelined multi-key client that routes each
// operation to its shard's replica group. A node is as large as its role:
// the replica state is flat over the keys of the owned shards only, and the
// client half sits behind a pointer that is nil at a pure replica. Quorum
// tracking is per outstanding op against Σ_{S_i} = the shard's group, and
// each shard's traffic shares the process's single message layer.
type StoreNode struct {
	self   dist.ProcID
	cfg    *StoreConfig // one copy, shared by the nodes of a program instantiation
	shards *ShardMap

	// Replica state, one flat slice each over the keys of the owned shards:
	// key k of owned shard sh sits at shards.offset(owned, sh) + Local(k).
	// held is the owned shards whose state is live — all of them, except
	// after Recover, where a shard rejoins on its first protocol touch
	// (locate). conf (FastReads only, else nil) holds per owned key the
	// highest ts this replica knows to have reached a full quorum,
	// invariant conf ≤ ts.
	owned, held ShardSet
	ts          []Timestamp
	val         []Value
	conf        []Timestamp

	// The client half, nil at a pure replica (self ∉ S). Embedded, so client
	// code reads its fields directly; every path a pure replica takes checks
	// it first.
	*storeClient

	// The reply frame of the delivery being served, leased on the first
	// reply, and its destination — a step delivers at most one message, so
	// its replies have one destination. Without piggybacking it is sent
	// before the step ends; with piggybacking flush folds it into the
	// destination's frame.
	rep    *storeFrame
	repDst dist.ProcID

	// Piggyback assembly state: the frame under construction per
	// destination (indexed by ProcID; nil when absent) plus the
	// deterministic flush order.
	outFrame []*storeFrame
	outDsts  []dist.ProcID

	// noWriteBack is the E12b ablation, set only by tests: every read
	// skips its write-back round, which is exactly the elision the
	// fast-read rule guards against. Reads are then regular but not atomic.
	noWriteBack bool
}

// storeClient is the client half of a StoreNode, allocated only at members
// of S.
type storeClient struct {
	// confClient (FastReads only, else nil) is the client-side confirmed
	// timestamp, dense over every key, piggybacked on outgoing queries
	// (queryEntry.CTS).
	confClient []Timestamp

	// The script with its arrival steps, grouped by shard and in script
	// order within each shard, and the per-shard FIFO queues that slice it
	// (script order within a shard keeps per-key program order; nil for
	// shards the script never touches). Queues are only ever resliced,
	// never written, so Rewind restores them from script.
	script    []queuedOp
	queues    [][]queuedOp
	scriptLen int
	opSeq     int64
	rid       int64
	pend      []storeOp
	completed int

	// Per-(client, shard) window controllers; cur is fixed at cfg.Window
	// unless AdaptiveWindow is on. maxWin/stall cache the config defaults.
	win      []shardWin
	maxWin   int
	stall    int
	doneMask ShardSet // shards that completed an op this client step
	load     []int    // outstanding ops per shard, maintained on start/complete
	// busy holds the shards with queued or outstanding ops, maintained where
	// queues fill and drain and ops finish, so DoneOn is one set test and
	// start and adaptWindows visit only these shards. Invariants: load[sh]
	// > 0 implies sh ∈ busy, and sh ∉ busy implies win[sh].idle == 0.
	busy ShardSet

	// Retransmission state (Retransmit only): the client's own step clock
	// (ticks once per Step of this node), the cached initial/cap timeouts,
	// and the count of phase re-sends performed.
	steps       int64
	rto0        int
	maxRTO      int
	retransmits int64

	// Per-step per-shard request accumulators, consumed and cleared by
	// flush (see the send-order rules above the wire types); nil for shards
	// the script never touches. dirty holds the shards whose qOut or sOut is
	// non-empty, so flush visits only those.
	qOut  [][]queryEntry
	sOut  [][]storeEntry
	dirty ShardSet

	// Per-op latency observations in the client's own steps, one per
	// completed op, recorded in the pend slots (op records carry no client
	// steps) and drained by sweeps through LatencyHist.
	// latClean/latFaulted split lat exactly by the op.faulted tag, so
	// fault-exposed tails never hide inside the blended histogram.
	// fastReads counts one-phase read completions, fallbacks the reads
	// that wrote back despite FastReads.
	lat        sweep.Hist
	latClean   sweep.Hist
	latFaulted sweep.Hist
	fastReads  int64
	fallbacks  int64
}

var (
	_ sim.Quiescent = (*StoreNode)(nil)
	_ sim.Rewinder  = (*StoreNode)(nil)
)

var _ sim.RefCounted = (*storeFrame)(nil)

// newStoreNode builds the store automaton for process self over the given
// shard map. It trusts its arguments — StoreProgram validates them — except
// that a script at a process outside S is ignored, enforcing the S-register
// access restriction at run time too. Only a member of S gets client state.
func newStoreNode(self dist.ProcID, n int, s dist.ProcSet, cfg *StoreConfig, m *ShardMap, script []KeyedOp) *StoreNode {
	a := &StoreNode{self: self, cfg: cfg, shards: m}
	for sh := 0; sh < m.Shards(); sh++ {
		if m.Owns(self, sh) {
			a.owned = a.owned.Add(sh)
		}
	}
	keys := m.offset(a.owned, m.Shards())
	a.ts = make([]Timestamp, keys)
	a.val = make([]Value, keys)
	if cfg.FastReads {
		a.conf = make([]Timestamp, keys)
	}
	if cfg.Piggyback {
		a.outFrame = make([]*storeFrame, n+1)
	}
	if s.Contains(self) {
		a.storeClient = newStoreClient(self, cfg, m, script)
	}
	a.restart()
	return a
}

// newStoreClient allocates the client half for script. Client buffers sit
// at their high-water marks, sized by the node's own script: growing them
// per run would make per-run allocations scale with how full the windows
// get. A shard holds at most a window of outstanding ops, and never more
// than the script routes to it.
func newStoreClient(self dist.ProcID, cfg *StoreConfig, m *ShardMap, script []KeyedOp) *storeClient {
	c := &storeClient{
		maxWin: cfg.maxWindow(),
		stall:  cfg.stallSteps(),
		rto0:   cfg.rto(),
		maxRTO: cfg.maxRTO(),
		queues: make([][]queuedOp, m.Shards()),
		win:    make([]shardWin, m.Shards()),
		load:   make([]int, m.Shards()),
		qOut:   make([][]queryEntry, m.Shards()),
		sOut:   make([][]storeEntry, m.Shards()),
	}
	if cfg.FastReads {
		c.confClient = make([]Timestamp, m.Keys())
	}
	winCap := cfg.window()
	if cfg.AdaptiveWindow {
		winCap = c.maxWin
	}
	c.pend = make([]storeOp, 0, min(winCap*m.Shards(), len(script)))
	// One counting pass by shard: load counts each shard's ops, then holds
	// the offset where the shard's next op goes (restart zeroes it).
	for _, op := range script {
		c.load[m.Shard(op.Key)]++
	}
	next := 0
	for sh, ops := range c.load {
		c.load[sh] = next
		next += ops
		if ops == 0 {
			continue // untouched: no accumulators
		}
		// With retransmission a step may re-send a full window on top of
		// the window it starts, so the accumulators get double headroom
		// to keep retransmit bursts off the allocator.
		outCap := min(winCap, ops)
		if cfg.Retransmit {
			outCap *= 2
		}
		c.qOut[sh] = make([]queryEntry, 0, outCap)
		c.sOut[sh] = make([]storeEntry, 0, outCap)
	}
	// Open-loop arrival schedule: the cumulative jittered (or fixed) gaps
	// over the script, assigned in script order so per-shard FIFO queues
	// stay arrival-ordered. Closed loop leaves every arrival 0.
	c.script = make([]queuedOp, len(script))
	arr := int64(0)
	for idx, op := range script {
		if cfg.OpenLoop && idx > 0 {
			arr += cfg.arrivalGapAt(self, idx)
		}
		sh := m.Shard(op.Key)
		c.script[c.load[sh]] = queuedOp{op: op, arrival: arr}
		c.load[sh]++
	}
	return c
}

// Rewind implements sim.Rewinder: it keeps the node's wiring and buffers,
// zeroes every counter and restores the constructed state. flush leaves
// the per-step accumulators (qOut, sOut, outFrame, outDsts) empty at the
// end of every step, so they are kept as they are.
func (a *StoreNode) Rewind() {
	*a = StoreNode{
		self:        a.self,
		cfg:         a.cfg,
		shards:      a.shards,
		owned:       a.owned,
		ts:          a.ts,
		val:         a.val,
		conf:        a.conf,
		storeClient: a.storeClient,
		outFrame:    a.outFrame,
		outDsts:     a.outDsts,
		noWriteBack: a.noWriteBack,
	}
	if c := a.storeClient; c != nil {
		*c = storeClient{
			confClient: c.confClient,
			script:     c.script,
			queues:     c.queues,
			pend:       c.pend[:0],
			win:        c.win,
			maxWin:     c.maxWin,
			stall:      c.stall,
			load:       c.load,
			rto0:       c.rto0,
			maxRTO:     c.maxRTO,
			qOut:       c.qOut,
			sOut:       c.sOut,
		}
	}
	a.restart()
}

// restart puts the node's buffers in the constructed state: zero replica
// state on every owned shard, the full script queued, every window at its
// start value. Construction and Rewind both end with it.
func (a *StoreNode) restart() {
	a.held = a.owned
	clear(a.ts)
	clear(a.val)
	clear(a.conf)
	c := a.storeClient
	if c == nil {
		return
	}
	clear(c.confClient)
	clear(c.load)
	clear(c.queues)
	for lo := 0; lo < len(c.script); {
		sh := a.shards.Shard(c.script[lo].op.Key)
		hi := lo + 1
		for hi < len(c.script) && a.shards.Shard(c.script[hi].op.Key) == sh {
			hi++
		}
		c.queues[sh] = c.script[lo:hi:hi]
		c.busy = c.busy.Add(sh)
		lo = hi
	}
	c.scriptLen = len(c.script)
	for sh := range c.win {
		c.win[sh] = shardWin{cur: a.cfg.window()}
	}
}

// StoreProgram builds a sim.Program running a StoreNode at every process of
// the n-process system (scripts indexed ProcID-1; nil entries are pure
// replicas). Invalid setups — a config rejected by StoreConfig.Validate, a
// script attached to a process outside S, a key outside [0, Keys), an
// unknown op kind — are construction-time errors. n must match the failure
// pattern the program later runs under. The Program only reads its inputs,
// so it serves any number of runners at once.
func StoreProgram(n int, s dist.ProcSet, cfg StoreConfig, scripts [][]KeyedOp) (sim.Program, error) {
	m, err := validateStore(n, s, cfg, scripts)
	if err != nil {
		return nil, err
	}
	return storeProgram(n, s, &cfg, m, scripts), nil
}

// validateStore is StoreProgram's construction-time validation. It returns
// the shard map the store runs on.
func validateStore(n int, s dist.ProcSet, cfg StoreConfig, scripts [][]KeyedOp) (*ShardMap, error) {
	m, err := cfg.ShardMap(n) // the full construction-time validation
	if err != nil {
		return nil, err
	}
	if !s.SubsetOf(dist.FullSet(n)) {
		return nil, fmt.Errorf("register: store members %v outside the %d-process system", s, n)
	}
	for i, sc := range scripts {
		p := dist.ProcID(i + 1)
		if len(sc) > 0 && !s.Contains(p) {
			return nil, fmt.Errorf("register: script attached to p%d outside S=%v", int(p), s)
		}
		for j, op := range sc {
			if op.Key < 0 || op.Key >= cfg.Keys {
				return nil, fmt.Errorf("register: p%d op %d: key %d outside [0,%d)", int(p), j, op.Key, cfg.Keys)
			}
			if op.Kind != ReadOp && op.Kind != WriteOp {
				return nil, fmt.Errorf("register: p%d op %d: unknown op kind %d", int(p), j, op.Kind)
			}
		}
	}
	return m, nil
}

// storeProgram builds the program of validated inputs (see validateStore):
// every node reads the one cfg and shard map, which the caller must not
// change afterwards.
func storeProgram(n int, s dist.ProcSet, cfg *StoreConfig, m *ShardMap, scripts [][]KeyedOp) sim.Program {
	return func(p dist.ProcID, _ int) sim.Automaton {
		var script []KeyedOp
		if int(p) <= len(scripts) {
			script = scripts[p-1]
		}
		return newStoreNode(p, n, s, cfg, m, script)
	}
}

// noClient stands in for the client half of a pure replica in the
// accessors: every counter zero, every histogram empty, no busy shard. It
// is shared, so callers must only read what the accessors return.
var noClient storeClient

// client returns the node's client half, or noClient at a pure replica.
func (a *StoreNode) client() *storeClient {
	if a.storeClient == nil {
		return &noClient
	}
	return a.storeClient
}

// Done reports whether the node's script has fully executed and no
// operation is outstanding on any shard. A pure replica is always done.
func (a *StoreNode) Done() bool { return a.client().busy.IsEmpty() }

// DoneOn reports whether the node has finished all work destined to the
// shards of the avail set: nothing queued for and nothing outstanding on
// an available shard. Operations routed to unavailable shards (a fully
// crashed replica group) can never complete and are excluded — a crash only
// degrades its own shard.
func (a *StoreNode) DoneOn(avail ShardSet) bool { return !a.client().busy.Intersects(avail) }

// CompletedOps returns the number of client operations this node completed.
func (a *StoreNode) CompletedOps() int { return a.client().completed }

// Retransmits returns the number of phase re-sends this client performed
// (zero without StoreConfig.Retransmit, and zero on failure-free runs —
// retransmission is pay-only-on-fault).
func (a *StoreNode) Retransmits() int64 { return a.client().retransmits }

// ScriptedOps returns the length of the node's client script.
func (a *StoreNode) ScriptedOps() int { return a.client().scriptLen }

// LatencyHist exposes the node's per-op latency observations in its own
// client steps: one observation per completed op, measured from the op's
// start (closed loop) or scripted arrival (open loop — queueing included).
// Sweeps merge these exactly, so aggregated percentiles are bit-identical
// across worker counts. A pure replica returns a shared empty histogram,
// which callers must not modify.
func (a *StoreNode) LatencyHist() *sweep.Hist { return &a.client().lat }

// CleanLatencyHist and FaultedLatencyHist split the per-op latency
// observations by fault exposure: an op that paid at least one
// retransmission (which subsumes parking behind a partition — parked ops
// keep retransmitting) lands in the faulted histogram, every other op in
// the clean one. Together they partition LatencyHist exactly.
func (a *StoreNode) CleanLatencyHist() *sweep.Hist   { return &a.client().latClean }
func (a *StoreNode) FaultedLatencyHist() *sweep.Hist { return &a.client().latFaulted }

// FastReads returns the number of reads this client completed in one phase
// with the write-back elided; ReadFallbacks the reads that fell back to the
// full two-phase protocol despite StoreConfig.FastReads. Both are zero with
// the feature off.
func (a *StoreNode) FastReads() int64     { return a.client().fastReads }
func (a *StoreNode) ReadFallbacks() int64 { return a.client().fallbacks }

// Shards returns the shard map the node routes by.
func (a *StoreNode) Shards() *ShardMap { return a.shards }

// WindowOf returns the node's current pipelining window toward one shard:
// the configured fixed window, or the adaptive controller's current value.
// A pure replica has no window and returns 0.
func (a *StoreNode) WindowOf(sh int) int {
	if a.storeClient == nil {
		return 0
	}
	return a.winFor(sh)
}

// ReplicaStateBytes returns the bytes of per-key replica state this node
// holds — the E19 metric: with the key space fixed, sharding shrinks it by
// the shard count, because a process only replicates its own shards.
// FastReads adds the per-key confirmed timestamp only when enabled. Right
// after Recover it is 0, and it regrows shard by shard as the protocol
// touches them.
func (a *StoreNode) ReplicaStateBytes() int {
	perKey := int(unsafe.Sizeof(Timestamp{}) + unsafe.Sizeof(Value(0)))
	if a.conf != nil {
		perKey += int(unsafe.Sizeof(Timestamp{}))
	}
	return perKey * a.shards.offset(a.held, a.shards.Shards())
}

// Quiescent implements sim.Quiescent: a node that is not an active client —
// it is outside S, or nothing is queued or outstanding on any shard — acts
// only on deliveries. Its null step skips the client half, and flush, which
// leaves every per-step accumulator empty at the end of each step, has
// nothing to send.
func (a *StoreNode) Quiescent() bool { return a.Done() }

// Recover implements sim.Recoverable: the runner calls it on the
// post-recovery instance, rewound to its constructed state, which must shed
// everything that was volatile in the crashed process. Replica data is
// zeroed in place and every shard leaves held, so it is visibly gone —
// ReplicaStateBytes drops to 0 — and repopulated exclusively through the
// protocol: locate returns a shard to held on its first touch by an
// incoming store/write-back, and the zero timestamps a rejoined replica
// then answers with can only lose max-merges at clients, never fake a
// confirmation (conf = 0 ≤ ts keeps the CTS invariant). The client script
// dies with the process: its pending ops were volatile, and replaying them
// would re-issue writes whose values may already be applied. The recovered
// process rejoins as a replica-only learner.
func (a *StoreNode) Recover() {
	a.held = ShardSet{}
	clear(a.ts)
	clear(a.val)
	clear(a.conf)
	c := a.storeClient
	if c == nil {
		return
	}
	for sh := range c.queues {
		c.queues[sh] = c.queues[sh][:0]
		if c.load[sh] == 0 {
			c.busy = c.busy.Remove(sh)
		}
	}
	c.scriptLen = 0
}

// locate resolves a key to its index in the node's flat replica state; ok
// is false for keys out of range or shards this node does not replicate.
// The touch returns a recovered shard to held: its state was zeroed by
// Recover (zero timestamps, zero values), and from here on it rides the
// normal write-back/phase-2 paths.
func (a *StoreNode) locate(key int) (i int, ok bool) {
	m := a.shards
	if key < 0 || key >= m.Keys() {
		return 0, false
	}
	sh := m.Shard(key)
	if !a.owned.Has(sh) {
		return 0, false
	}
	if !a.held.Has(sh) {
		a.held = a.held.Add(sh)
	}
	return m.offset(a.owned, sh) + m.Local(key), true
}

// Step implements sim.Automaton.
func (a *StoreNode) Step(e *sim.Env) {
	if payload, from, ok := e.Delivered(); ok {
		a.onMessage(e, payload, from)
	}
	if !a.Done() {
		a.steps++
		a.doneMask = ShardSet{}
		a.advance(e)
		a.adaptWindows()
		a.retransmit()
		a.start(e)
	}
	// Always flush: replicas that are not (active) clients still owe the
	// step's deferred piggyback replies, and flush consumes and clears
	// every per-step accumulator.
	a.flush(e)
}

func (a *StoreNode) onMessage(e *sim.Env, payload any, from dist.ProcID) {
	f, ok := payload.(*storeFrame)
	if !ok {
		return
	}
	a.serveQueries(e, f.Q, from)
	a.serveStores(e, f.S, from)
	if a.storeClient != nil { // replies only ever reach clients
		a.absorbQueryReps(f.QR, from)
		a.absorbStoreReps(f.SR, from)
	}
	if !a.cfg.Piggyback {
		a.sendReply(e) // rule 1: replies go out before the client's requests
	}
	// On untraced runs the runner transfers payload ownership to this node
	// (sim's send-buffer lease contract): the last recipient of a frame
	// recycles it once it is fully processed.
	if e.DeliveredOwned() {
		f.DropRef()
	}
}

// serveQueries answers query requests from the node's replica state into
// the delivery's reply frame.
func (a *StoreNode) serveQueries(e *sim.Env, entries []queryEntry, from dist.ProcID) {
	for _, q := range entries {
		if i, ok := a.locate(q.Key); ok { // else misrouted: not this node's shard
			f := a.replyFrame(e, from)
			f.QR = append(f.QR, a.answerQuery(q, i))
		}
	}
}

// answerQuery builds the reply to one located query entry and, with
// FastReads, merges the query's piggybacked confirmation into the replica's
// confirmed timestamp. The merge is gated on CTS ≤ own ts: a confirmation
// may only be adopted by a replica that actually stores (at least) that
// write, which is what keeps the conf ≤ ts invariant — and with it the
// elision rule's safety — intact under any delivery order.
func (a *StoreNode) answerQuery(q queryEntry, i int) queryRepEntry {
	rep := queryRepEntry{Key: q.Key, RID: q.RID, TS: a.ts[i], V: a.val[i]}
	if a.cfg.FastReads {
		if a.conf[i].Less(q.CTS) && !a.ts[i].Less(q.CTS) {
			a.conf[i] = q.CTS
		}
		rep.CTS = a.conf[i]
	}
	return rep
}

// serveStores applies store (phase-2) requests to the replica state and
// acknowledges them into the delivery's reply frame.
func (a *StoreNode) serveStores(e *sim.Env, entries []storeEntry, from dist.ProcID) {
	for _, s := range entries {
		if i, ok := a.locate(s.Key); ok {
			if a.ts[i].Less(s.TS) {
				a.ts[i], a.val[i] = s.TS, s.V
			}
			f := a.replyFrame(e, from)
			f.SR = append(f.SR, storeRepEntry{Key: s.Key, RID: s.RID})
		}
	}
}

// replyFrame returns the frame the next reply to from joins, leasing it on
// the delivery's first reply.
func (a *StoreNode) replyFrame(e *sim.Env, from dist.ProcID) *storeFrame {
	if a.rep == nil {
		a.rep, a.repDst = leaseFrame(e), from
	}
	return a.rep
}

// sendReply sends the pending reply frame, if any.
func (a *StoreNode) sendReply(e *sim.Env) {
	if a.rep != nil {
		e.Send(a.repDst, a.rep)
		a.rep = nil
	}
}

// absorbQueryReps credits query replies to their outstanding phase-1 ops.
func (a *StoreNode) absorbQueryReps(entries []queryRepEntry, from dist.ProcID) {
	for _, rep := range entries {
		if op := a.lookup(rep.Key, rep.RID, 1); op != nil {
			if a.cfg.FastReads {
				if op.sawReply && rep.TS != op.best {
					op.diverged = true // two credited replies disagree
				}
				op.sawReply = true
				if op.bestConf.Less(rep.CTS) {
					op.bestConf = rep.CTS
				}
			}
			op.acks = op.acks.Add(from)
			if op.best.Less(rep.TS) {
				op.best, op.bestVal = rep.TS, rep.V
			}
		}
	}
}

// absorbStoreReps credits store acks to their outstanding phase-2 ops.
func (a *StoreNode) absorbStoreReps(entries []storeRepEntry, from dist.ProcID) {
	for _, rep := range entries {
		if op := a.lookup(rep.Key, rep.RID, 2); op != nil {
			op.acks = op.acks.Add(from)
		}
	}
}

// lookup finds the outstanding op correlated by (key, rid) in the given
// phase. The windows are small, so a linear scan beats any index.
func (a *StoreNode) lookup(key int, rid int64, phase uint8) *storeOp {
	for i := range a.pend {
		op := &a.pend[i]
		if op.key == key && op.rid == rid && op.phase == phase {
			return op
		}
	}
	return nil
}

func (a *StoreNode) inFlight(key int) bool {
	for i := range a.pend {
		if a.pend[i].key == key {
			return true
		}
	}
	return false
}

// shardLoad returns the outstanding ops routed to one shard, maintained
// incrementally on start/complete so neither the window-fill loop nor the
// adaptive controller rescans pend.
func (a *StoreNode) shardLoad(sh int) int { return a.load[sh] }

// winFor returns the current pipelining window toward one shard.
func (a *StoreNode) winFor(sh int) int {
	if a.cfg.AdaptiveWindow {
		return a.win[sh].cur
	}
	return a.cfg.window()
}

// noteCompletion feeds one completed op into the shard's controller: the
// additive-increase half of AIMD, +1 per completed window, capped at
// MaxWindow. Completion also clears the shard's stall clock (via doneMask
// in adaptWindows).
func (a *StoreNode) noteCompletion(sh int) {
	a.doneMask = a.doneMask.Add(sh)
	if !a.cfg.AdaptiveWindow {
		return
	}
	w := &a.win[sh]
	w.acked++
	if w.acked >= w.cur {
		w.acked = 0
		if w.cur < a.maxWin {
			w.cur++
		}
	}
}

// adaptWindows runs the multiplicative-decrease half of the controller once
// per client step, after advance has retired the step's completions: a
// shard that held outstanding ops for stall consecutive client steps
// without completing any (a stalled or dead quorum — backpressure) has its
// window halved, decaying to the floor of 1 under a fully crashed group.
// Only busy shards can hold outstanding ops; every other shard's stall
// clock is already zero (finish zeroes it as the shard leaves busy).
// Controller state is a pure function of the node's observation sequence,
// so sweep verdicts stay bit-identical across worker counts.
func (a *StoreNode) adaptWindows() {
	if !a.cfg.AdaptiveWindow {
		return
	}
	a.busy.ForEach(func(sh int) {
		w := &a.win[sh]
		if a.doneMask.Has(sh) || a.load[sh] == 0 {
			w.idle = 0
			return
		}
		w.idle++
		if w.idle >= a.stall {
			w.idle = 0
			w.acked = 0
			w.cur /= 2
			if w.cur < 1 {
				w.cur = 1
			}
		}
	})
}

// retransmit re-sends the current-phase request of every outstanding op
// whose timer expired, through the same per-shard accumulators (and thus the
// same batching/piggybacking and pooled-frame paths) as first sends.
// Replica re-answers are idempotent and client reply-crediting dedups by
// (key, rid, phase) set membership, so a late original plus a retransmit
// can never double-count a quorum. Each expiry doubles the op's timeout up
// to MaxRTO: an op against an unreachable shard decays to a periodic probe
// that resurrects it the moment the partition heals.
func (a *StoreNode) retransmit() {
	if !a.cfg.Retransmit || len(a.pend) == 0 {
		return
	}
	for i := range a.pend {
		op := &a.pend[i]
		if a.steps-op.lastSend < int64(op.rto) {
			continue
		}
		op.lastSend = a.steps
		if r2 := op.rto * 2; r2 <= a.maxRTO {
			op.rto = r2
		} else {
			op.rto = a.maxRTO
		}
		a.retransmits++
		op.faulted = true
		switch op.phase {
		case 1:
			q := queryEntry{Key: op.key, RID: op.rid}
			if a.cfg.FastReads {
				q.CTS = a.confClient[op.key]
			}
			a.qOut[op.shard] = append(a.qOut[op.shard], q)
		case 2:
			a.sOut[op.shard] = append(a.sOut[op.shard], storeEntry{Key: op.key, RID: op.rid, TS: op.best, V: op.bestVal})
		}
		a.dirty = a.dirty.Add(op.shard)
	}
}

// quorum returns the responder set an op must cover: the Σ_S trust list
// projected onto the op's shard group — the Σ_{S_i} instance of that shard.
// An empty projection (the whole group crashed) means the shard has no live
// quorum and the op can never complete; returning ok=false keeps it pending
// instead of letting the vacuous subset test complete it on stale state.
func (a *StoreNode) quorum(trusted dist.ProcSet, sh int) (dist.ProcSet, bool) {
	q := trusted.Intersect(a.shards.Group(sh))
	return q, !q.IsEmpty()
}

// advance applies the ABD phase-termination rule to every outstanding op
// with one Σ_S query per step: an op whose responders cover its shard's
// projection of a trusted set moves from query to store phase (writes pick
// ts = best+1, reads write the best value back) or completes.
func (a *StoreNode) advance(e *sim.Env) {
	if len(a.pend) == 0 {
		return
	}
	tl, ok := e.QueryFD().(fd.TrustList)
	if !ok || tl.Bottom || tl.Trusted.IsEmpty() {
		return
	}
	kept := a.pend[:0]
	for i := range a.pend {
		op := a.pend[i]
		q, live := a.quorum(tl.Trusted, op.shard)
		if !live || !q.SubsetOf(op.acks) {
			kept = append(kept, op)
			continue
		}
		switch op.phase {
		case 1:
			if a.fastReadEligible(&op) {
				// One-phase fast read: every credited reply carried op.best
				// (unanimous — the value is stored at this very quorum), or
				// the maximum ts is ≤ a quorum-confirmed ts (conf ≤ ts makes
				// that exactly bestConf == best). Either way the read's
				// value provably rests at a quorum and the write-back round
				// is elided.
				a.fastReads++
				a.finish(e, &op)
				continue
			}
			if a.cfg.FastReads && op.kind == ReadOp {
				a.fallbacks++
			}
			var st Timestamp
			var v Value
			if op.kind == WriteOp {
				st = Timestamp{Seq: op.best.Seq + 1, PID: a.self}
				v = op.arg
			} else {
				st, v = op.best, op.bestVal // read write-back
			}
			a.rid++
			op.rid = a.rid
			op.phase = 2
			op.acks = dist.ProcSet{}
			op.best, op.bestVal = st, v
			op.lastSend = a.steps
			op.rto = a.rto0
			if i, owned := a.locate(op.key); owned {
				// The local replica stores and answers immediately.
				op.acks = dist.NewProcSet(a.self)
				if a.ts[i].Less(st) {
					a.ts[i], a.val[i] = st, v
				}
			}
			a.sOut[op.shard] = append(a.sOut[op.shard], storeEntry{Key: op.key, RID: op.rid, TS: st, V: v})
			a.dirty = a.dirty.Add(op.shard)
			kept = append(kept, op)
		case 2:
			a.finish(e, &op)
			// Completed: dropped from the pending window.
		}
	}
	a.pend = kept
}

// fastReadEligible reports whether a phase-1 read whose quorum just
// completed may finish without the write-back round: its credited replies
// were unanimous, or their maximum timestamp is already confirmed at a
// quorum. Under the noWriteBack ablation every read is eligible.
func (a *StoreNode) fastReadEligible(op *storeOp) bool {
	return op.kind == ReadOp && (a.noWriteBack || a.cfg.FastReads && (!op.diverged || op.bestConf == op.best))
}

// finish retires one completed op: the Return record, the latency
// observations (total plus the clean/faulted fault-exposure split), the
// window bookkeeping, and — with FastReads — confirmation of op.best, which
// this completion just proved is stored at a quorum.
func (a *StoreNode) finish(e *sim.Env, op *storeOp) {
	desc := sim.OpDesc{Key: op.key, Kind: uint8(op.kind), Arg: int64(op.arg)}
	if op.kind == ReadOp {
		desc.Ret = int64(op.bestVal)
	}
	e.Return(op.seq, desc)
	d := a.steps - op.invoke
	a.lat.Observe(d)
	if op.faulted {
		a.latFaulted.Observe(d)
	} else {
		a.latClean.Observe(d)
	}
	a.completed++
	a.load[op.shard]--
	if a.load[op.shard] == 0 && len(a.queues[op.shard]) == 0 {
		// adaptWindows visits only busy shards, so the completion zeroes
		// the stall clock of a shard leaving the set here.
		a.busy = a.busy.Remove(op.shard)
		a.win[op.shard].idle = 0
	}
	a.noteCompletion(op.shard)
	if a.cfg.FastReads {
		a.noteConfirmed(op.key, op.best)
	}
}

// noteConfirmed records that ts is stored at a quorum of key's group: the
// client remembers it for piggybacking on its next queries of the key, and
// the local replica — when it owns the key and already stores at least ts —
// adopts it directly. The ts gate preserves the conf ≤ ts invariant.
func (a *StoreNode) noteConfirmed(key int, ts Timestamp) {
	if a.confClient[key].Less(ts) {
		a.confClient[key] = ts
	}
	if i, owned := a.locate(key); owned {
		if a.conf[i].Less(ts) && !a.ts[i].Less(ts) {
			a.conf[i] = ts
		}
	}
}

// start fills each shard's pipelining window: scripted ops begin strictly
// in script order within their shard, and an op whose key is already in
// flight blocks the ones behind it on the same shard only (head-of-line
// blocking keeps per-client per-key program order; other shards keep
// flowing, so a slow or dead shard never stalls the rest). Under OpenLoop
// an op additionally waits for its arrival step: the window only gates how
// many eligible ops run at once, and time queued past arrival is charged to
// the op's measured latency. Only busy shards have queued ops; they are
// visited in increasing order, so rids and op sequence numbers follow shard
// order.
func (a *StoreNode) start(e *sim.Env) {
	a.busy.ForEach(func(sh int) {
		w := a.winFor(sh)
		for len(a.queues[sh]) > 0 && a.shardLoad(sh) < w {
			head := a.queues[sh][0]
			if head.arrival > a.steps {
				break // open loop: not yet arrived (per-shard FIFO order holds)
			}
			op := head.op
			if a.inFlight(op.Key) {
				break
			}
			invoke := a.steps
			if a.cfg.OpenLoop {
				invoke = head.arrival
			}
			a.queues[sh] = a.queues[sh][1:]
			a.opSeq++
			a.rid++
			e.Invoke(a.opSeq, sim.OpDesc{Key: op.Key, Kind: uint8(op.Kind), Arg: int64(op.Arg)})
			pend := storeOp{
				key:      op.Key,
				shard:    sh,
				rid:      a.rid,
				kind:     op.Kind,
				arg:      op.Arg,
				seq:      a.opSeq,
				phase:    1,
				lastSend: a.steps,
				rto:      a.rto0,
				invoke:   invoke,
			}
			if i, owned := a.locate(op.Key); owned {
				pend.acks = dist.NewProcSet(a.self)
				pend.best, pend.bestVal = a.ts[i], a.val[i]
				if a.cfg.FastReads {
					// The local self-answer is the op's first credited
					// reply; it carries the local confirmed ts.
					pend.sawReply = true
					pend.bestConf = a.conf[i]
				}
			}
			a.pend = append(a.pend, pend)
			a.load[sh]++
			q := queryEntry{Key: op.Key, RID: a.rid}
			if a.cfg.FastReads {
				q.CTS = a.confClient[op.Key]
			}
			a.qOut[sh] = append(a.qOut[sh], q)
			a.dirty = a.dirty.Add(sh)
		}
	})
}

// flush sends what the step produced and clears every per-step
// accumulator, under the send-order rules above the wire types: per-shard
// request snapshots (rule 2) or their fold into per-destination frames
// together with the step's replies (rule 3). Requests only travel to their
// shard's replica group — the routing that keeps quorum traffic off
// processes outside the group. Shards flush in increasing order, the dirty
// ones only.
func (a *StoreNode) flush(e *sim.Env) {
	if a.storeClient != nil {
		a.dirty.ForEach(func(sh int) {
			if len(a.qOut[sh]) > 0 {
				flushRequests(a, e, sh, &a.qOut[sh], querySection)
			}
			if len(a.sOut[sh]) > 0 {
				flushRequests(a, e, sh, &a.sOut[sh], storeSection)
			}
		})
		a.dirty = ShardSet{}
	}
	if r := a.rep; r != nil {
		// Piggybacking: the step's replies join the reply destination's
		// frame, touched after every request frame.
		a.rep = nil
		f := a.frameFor(e, a.repDst)
		f.QR = append(f.QR, r.QR...)
		f.SR = append(f.SR, r.SR...)
		r.pool.Put(r) // never sent, so never counted
	}
	for _, p := range a.outDsts {
		f := a.outFrame[p]
		a.outFrame[p] = nil
		e.Send(p, f)
	}
	a.outDsts = a.outDsts[:0]
}

func querySection(f *storeFrame) *[]queryEntry { return &f.Q }
func storeSection(f *storeFrame) *[]storeEntry { return &f.S }

// flushRequests flushes one non-empty (shard, kind) request accumulator —
// section picks the frame section of its kind. With piggybacking the
// entries fold into the frame under construction of every other group
// member; otherwise one snapshot frame goes to the whole group.
func flushRequests[E queryEntry | storeEntry](a *StoreNode, e *sim.Env, sh int, out *[]E, section func(*storeFrame) *[]E) {
	entries := *out
	*out = entries[:0]
	group := a.shards.Group(sh).Remove(a.self) // the local replica answered in-process
	if a.cfg.Piggyback {
		for set := group; !set.IsEmpty(); {
			p := set.Min()
			set = set.Remove(p)
			sec := section(a.frameFor(e, p))
			*sec = append(*sec, entries...)
		}
		return
	}
	if group.IsEmpty() {
		return
	}
	f := leaseFrame(e)
	sec := section(f)
	*sec = append(*sec, entries...)
	for set := group; !set.IsEmpty(); {
		p := set.Min()
		set = set.Remove(p)
		e.Send(p, f)
	}
}

// frameFor returns the frame under construction for destination p, leasing
// a pooled one on first use and recording the flush order.
func (a *StoreNode) frameFor(e *sim.Env, p dist.ProcID) *storeFrame {
	if f := a.outFrame[p]; f != nil {
		return f
	}
	f := leaseFrame(e)
	a.outFrame[p] = f
	a.outDsts = append(a.outDsts, p)
	return f
}
