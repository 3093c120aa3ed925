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

// KeyedOpDesc is the payload recorded on Invoke/Return trace events of store
// operations; ExtractKeyedOps groups the records by Key.
type KeyedOpDesc struct {
	Key  int
	Kind OpKind
	Arg  Value // write argument
	Ret  Value // read result (Return events of reads)
}

// Store protocol messages. Every request or reply is an entry correlated by
// (Key, RID), and every message is one storeFrame whose sections carry the
// entries by kind: Q query requests, S store requests, QR query replies, SR
// store acks. Three rules fix message boundaries and send order — and send
// order sets the message seq, which sim.FaultPlan decisions hash:
//
//  1. Without piggybacking a replica answers while it processes a delivery,
//     before its own client requests go out: one reply frame per delivery,
//     sent at once and never parked.
//  2. Without piggybacking a node's requests travel as one snapshot frame
//     per (shard, kind, step), shared by every member of the shard's replica
//     group (refs counts the recipients; a request never reaches a process
//     outside its shard's group). With CoalesceDelay > 0 an under-filled
//     snapshot parks per (shard, kind), and a full window flushes early.
//  3. With piggybacking (StoreConfig.Piggyback, the E22 row) everything a
//     node has for one destination in one step — requests of every shard
//     plus the step's replies — folds into one frame per destination, sent
//     in first-touch order: shards ascending, then members ascending, then
//     the reply destination. These frames park by age only.
//
// With batching disabled (StoreConfig.DisableBatching, the E18/E20 ablation)
// a frame holds at most one entry, so every request and every reply pays its
// own message.
//
// Frames travel as pointers and are pooled: unless the trace records
// messages (untraced runs, and StoreSweep's message-free traces) the
// receiver owns a delivered frame (sim.Env.DeliveredOwned) and recycles it
// into the pool once the last recipient has processed it, which is what
// makes the steady-state step path allocation-free. When the trace records
// messages it retains every payload, ownership is never granted, and the
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
		pool *framePool
	}
)

// storeFrame implements sim.RefCounted so fault injection composes with the
// lease contract: when the runner drops a copy by loss it returns the lost
// delivery's reference (recycling the frame if it was the last), and when it
// duplicates a copy it adds one before enqueueing. The pool backref is set at
// lease time, so a dropped frame recycles into the pool of the program that
// leased it.
func (f *storeFrame) AddRef() { f.refs++ }
func (f *storeFrame) DropRef() {
	if release(&f.refs) {
		f.pool.put(f)
	}
}

// release drops one reference and reports whether the caller held the last
// one (the runner is single-threaded, so no atomics are needed).
func release(refs *int32) bool {
	*refs--
	return *refs <= 0
}

// framePoolCap bounds the free list so pool memory tracks the in-flight
// high-water mark, not run length. It must sit above the largest circulating
// set (windows × shards × group fan-out, requests and replies together), or
// the overflow drops re-allocate on the next lease and the steady state is
// no longer allocation-free.
const framePoolCap = 1024

// framePool is a capped LIFO free list of recycled frames. One pool is
// shared by every StoreNode of a program instantiation (the runner steps
// automata single-threadedly, so no locking): requests flow client → replica
// and replies replica → client, so per-node pools would starve — each side
// hoarding frames at its cap while the other allocates — while the shared
// pool closes the cycle. It survives Reset, so a reused runner stops
// allocating frames entirely after its first run.
type framePool struct{ free []*storeFrame }

// get leases an empty frame.
func (p *framePool) get() *storeFrame {
	if n := len(p.free); n > 0 {
		f := p.free[n-1]
		p.free = p.free[:n-1]
		f.Q, f.S, f.QR, f.SR = f.Q[:0], f.S[:0], f.QR[:0], f.SR[:0]
		return f
	}
	return &storeFrame{pool: p}
}

func (p *framePool) put(f *storeFrame) {
	if len(p.free) < framePoolCap {
		p.free = append(p.free, f)
	}
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
	// DisableBatching caps every frame at one entry, so each request and
	// each reply pays its own message instead of sharing one frame per
	// (shard, kind, step) (E18/E20).
	DisableBatching bool
	// Piggyback folds all of a step's same-destination traffic — query and
	// store request snapshots across shards plus the step's pending replies —
	// into one combined frame per (src, dst) pair (E22). Rejected together
	// with DisableBatching, which would silently disable it (one entry per
	// message leaves nothing to fold).
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
	// CoalesceDelay D > 0 enables bounded-delay cross-step coalescing: an
	// under-filled outgoing request snapshot (or piggyback frame) may park for
	// up to D of the sender's scheduled steps to merge with later
	// same-destination traffic before flushing — a bounded, measured
	// latency increase traded for fewer msgs/op. A parked snapshot flushes
	// early once it already carries a full window of entries (nothing more
	// can join until a completion, which the parked snapshot itself gates).
	// Retransmission timers stretch by 2D so parking never triggers
	// spurious retransmits. 0 keeps the flush-every-step path; rejected
	// together with DisableBatching (one entry per message leaves nothing
	// to merge).
	CoalesceDelay int
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
	// to a build without the feature; on, it composes with batching,
	// piggybacking, coalescing, retransmission and fault injection, so no
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

// arrivalMix is the splitmix64-style finalizer sim.FaultPlan uses: arrival
// schedules are a pure function of (seed, client, index), never of execution
// order, which keeps sweeps bit-identical across worker counts.
func arrivalMix(a, b uint64) uint64 {
	z := a + b*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// arrivalGapAt returns the inter-arrival gap preceding scripted op idx of
// client self: the fixed mean, or an exponential-ish jittered draw with that
// mean (0-step gaps model bursts; the 53-bit hash bounds the tail at ~37×).
func (c StoreConfig) arrivalGapAt(self dist.ProcID, idx int) int64 {
	g := int64(c.arrivalGap())
	if !c.ArrivalJitter {
		return g
	}
	u := float64(arrivalMix(uint64(c.ArrivalSeed)*0xD1342543DE82EF95+uint64(self), uint64(idx))>>11) / (1 << 53)
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
// empty, undefined or self-defeating run: a non-positive key space, a window
// below 1, a shard count the n-process system cannot host, piggybacking
// combined with DisableBatching (which would silently disable it), or
// controller knobs without the controller.
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
	if c.Piggyback && c.DisableBatching {
		return nil, fmt.Errorf("register: Piggyback with DisableBatching would be silently ignored (one entry per message leaves nothing to fold); enable at most one")
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
	if c.CoalesceDelay < 0 {
		return nil, fmt.Errorf("register: store CoalesceDelay %d is negative", c.CoalesceDelay)
	}
	if c.CoalesceDelay > 0 && c.DisableBatching {
		return nil, fmt.Errorf("register: CoalesceDelay with DisableBatching has nothing to merge (one entry per message); enable at most one")
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
// operation to its shard's replica group. Replica state is sparse — only
// owned shards allocate their dense per-local-key Timestamp/Value slices —
// quorum tracking is per outstanding op against Σ_{S_i} = the shard's
// group, and each shard's traffic shares the process's single message layer.
type StoreNode struct {
	self   dist.ProcID
	n      int
	s      dist.ProcSet
	cfg    StoreConfig
	shards *ShardMap

	// Replica state, sparse per shard: ts[sh]/val[sh] are nil unless self
	// belongs to shard sh's group, else dense over the shard's local keys.
	ts  [][]Timestamp
	val [][]Value

	// Confirmed timestamps (FastReads only, else nil): conf mirrors ts's
	// sparse shape — per owned key, the highest ts this replica knows to
	// have reached a full quorum, invariant conf ≤ ts — and confClient is
	// the client-side equivalent, dense over every key, piggybacked on
	// outgoing queries (queryEntry.CTS).
	conf       [][]Timestamp
	confClient []Timestamp

	// Client state: the script split into per-shard FIFO queues (script
	// order within each shard, which keys make per-key program order), one
	// window controller per shard.
	queues    [][]queuedOp
	queued    int // ops remaining across all queues
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

	// Retransmission state (Retransmit only): the client's own step clock
	// (ticks once per Step of this node), the cached initial/cap timeouts,
	// and the count of phase re-sends performed.
	steps       int64
	rto0        int
	maxRTO      int
	retransmits int64

	// Per-step per-shard request accumulators, consumed and cleared by
	// flush (see the send-order rules above the wire types).
	qOut [][]queryEntry
	sOut [][]storeEntry

	// Pooled frames (see framePool): filled only when sim grants the
	// receiver ownership of delivered payloads. Shared across the nodes of
	// one program instantiation by StoreProgram.
	pool *framePool

	// The reply frame of the delivery being served, leased on the first
	// reply, and its destination — a step delivers at most one message, so
	// its replies have one destination. Without piggybacking it is sent
	// before the step ends; with piggybacking flush folds it into the
	// destination's frame.
	rep    *storeFrame
	repDst dist.ProcID

	// Piggyback assembly state: the frame under construction per
	// destination (indexed by ProcID; nil when absent) plus the
	// deterministic flush order. With coalescing a frame may stay under
	// construction across steps.
	outFrame []*storeFrame
	outDsts  []dist.ProcID

	// Per-op latency observations in the client's own steps, one per
	// completed op, recorded in the pend slots (not via trace op-records,
	// which untraced runs mute) and drained by sweeps through LatencyHist.
	// latClean/latFaulted split lat exactly by the op.faulted tag, so
	// fault-exposed tails never hide inside the blended histogram.
	// fastReads counts one-phase read completions, fallbacks the reads
	// that wrote back despite FastReads.
	lat        sweep.Hist
	latClean   sweep.Hist
	latFaulted sweep.Hist
	fastReads  int64
	fallbacks  int64

	// Bounded-delay coalescing state (allocated only when CoalesceDelay >
	// 0, see park): clock is the node's scheduled-step count — it ticks for
	// replicas too, which park reply frames — and the held-time arrays hold
	// the clock at which each parked accumulator (qHeldT/sHeldT per shard)
	// or piggyback frame (frameT per destination) first parked, -1 when
	// nothing is parked.
	clock  int64
	qHeldT []int64
	sHeldT []int64
	frameT []int64

	// noWriteBack is the E12b ablation, set only by tests: every read
	// skips its write-back round, which is exactly the elision the
	// fast-read rule guards against. Reads are then regular but not atomic.
	noWriteBack bool
}

var _ sim.Automaton = (*StoreNode)(nil)

var _ sim.RefCounted = (*storeFrame)(nil)

// newStoreNode builds the store automaton for process self over the given
// shard map. It trusts its arguments — StoreProgram validates them — except
// that a script at a process outside S is ignored, enforcing the S-register
// access restriction at run time too.
func newStoreNode(self dist.ProcID, n int, s dist.ProcSet, cfg StoreConfig, m *ShardMap, script []KeyedOp, pool *framePool) *StoreNode {
	a := &StoreNode{
		self:   self,
		n:      n,
		s:      s,
		cfg:    cfg,
		shards: m,
		maxWin: cfg.maxWindow(),
		stall:  cfg.stallSteps(),
		rto0:   cfg.rto(),
		maxRTO: cfg.maxRTO(),
		pool:   pool,
		ts:     make([][]Timestamp, m.Shards()),
		val:    make([][]Value, m.Shards()),
		queues: make([][]queuedOp, m.Shards()),
		win:    make([]shardWin, m.Shards()),
		load:   make([]int, m.Shards()),
		qOut:   make([][]queryEntry, m.Shards()),
		sOut:   make([][]storeEntry, m.Shards()),
	}
	if cfg.FastReads {
		a.conf = make([][]Timestamp, m.Shards())
	}
	for sh := 0; sh < m.Shards(); sh++ {
		a.win[sh].cur = cfg.window()
		if m.Owns(self, sh) {
			a.ts[sh] = make([]Timestamp, m.KeysIn(sh))
			a.val[sh] = make([]Value, m.KeysIn(sh))
			if cfg.FastReads {
				a.conf[sh] = make([]Timestamp, m.KeysIn(sh))
			}
		}
	}
	if cfg.Piggyback {
		a.outFrame = make([]*storeFrame, n+1)
	}
	if cfg.CoalesceDelay > 0 {
		if cfg.Piggyback {
			a.frameT = unparked(n + 1)
		} else {
			a.qHeldT, a.sHeldT = unparked(m.Shards()), unparked(m.Shards())
		}
	}
	if s.Contains(self) {
		if cfg.FastReads {
			a.confClient = make([]Timestamp, m.Keys())
		}
		// Client buffers at their window-bound high-water marks: growing
		// them per run would make per-run allocations scale with how full
		// the windows get, i.e. with script length.
		winCap := cfg.window()
		if cfg.AdaptiveWindow {
			winCap = a.maxWin
		}
		a.pend = make([]storeOp, 0, winCap*m.Shards())
		// With retransmission a step may re-send a full window on top of the
		// window it starts, so the accumulators get double headroom to keep
		// retransmit bursts off the allocator.
		outCap := winCap
		if cfg.Retransmit {
			outCap *= 2
		}
		if cfg.CoalesceDelay > 0 {
			// A parked accumulator merges up to CoalesceDelay steps of
			// traffic before flushing; size for that high-water mark so
			// parking never grows the buffers mid-measurement.
			outCap *= cfg.CoalesceDelay + 2
		}
		for sh := 0; sh < m.Shards(); sh++ {
			a.qOut[sh] = make([]queryEntry, 0, outCap)
			a.sOut[sh] = make([]storeEntry, 0, outCap)
		}
		a.scriptLen = len(script)
		a.queued = len(script)
		// Exact per-shard queue capacities: append-growth here would scale
		// construction allocations with script length, muddying the
		// steady-state-zero measurement that excludes fixed setup. The live
		// load counters double as the counting scratch (zeroed after).
		for _, op := range script {
			a.load[m.Shard(op.Key)]++
		}
		for sh := range a.queues {
			a.queues[sh] = make([]queuedOp, 0, a.load[sh])
			a.load[sh] = 0
		}
		// Open-loop arrival schedule: the cumulative jittered (or fixed)
		// gaps over the script, assigned in script order so per-shard FIFO
		// queues stay arrival-ordered. Closed loop leaves every arrival 0.
		arr := int64(0)
		for idx, op := range script {
			if cfg.OpenLoop && idx > 0 {
				arr += cfg.arrivalGapAt(self, idx)
			}
			sh := m.Shard(op.Key)
			a.queues[sh] = append(a.queues[sh], queuedOp{op: op, arrival: arr})
		}
	}
	return a
}

// unparked returns k held-time slots, none parked.
func unparked(k int) []int64 {
	held := make([]int64, k)
	for i := range held {
		held[i] = -1
	}
	return held
}

// StoreProgram builds a sim.Program running a StoreNode at every process of
// the n-process system (scripts indexed ProcID-1; nil entries are pure
// replicas). Invalid setups — a config rejected by StoreConfig.Validate, a
// script attached to a process outside S, a key outside [0, Keys), an
// unknown op kind — are construction-time errors. n must match the failure
// pattern the program later runs under.
//
// The nodes of one instantiation share a payload pool that also survives
// runner Resets, which is what keeps the steady-state step path
// allocation-free on untraced runs. The returned Program is therefore NOT
// safe for concurrent use by multiple runners — build one Program per
// worker (StoreSweep does).
func StoreProgram(n int, s dist.ProcSet, cfg StoreConfig, scripts [][]KeyedOp) (sim.Program, error) {
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
	pool := &framePool{}
	return func(p dist.ProcID, _ int) sim.Automaton {
		var script []KeyedOp
		if int(p) <= len(scripts) {
			script = scripts[p-1]
		}
		return newStoreNode(p, n, s, cfg, m, script, pool)
	}, nil
}

// Done reports whether the node's script has fully executed and no
// operation is outstanding on any shard.
func (a *StoreNode) Done() bool { return a.queued == 0 && len(a.pend) == 0 }

// DoneOn reports whether the node has finished all work destined to the
// shards of the avail set: nothing queued for and nothing outstanding on
// an available shard. Operations routed to unavailable shards (a fully
// crashed replica group) can never complete and are excluded — a crash only
// degrades its own shard.
func (a *StoreNode) DoneOn(avail ShardSet) bool {
	for sh := range a.queues {
		if avail.Has(sh) && len(a.queues[sh]) > 0 {
			return false
		}
	}
	for i := range a.pend {
		if avail.Has(a.pend[i].shard) {
			return false
		}
	}
	return true
}

// CompletedOps returns the number of client operations this node completed.
func (a *StoreNode) CompletedOps() int { return a.completed }

// Retransmits returns the number of phase re-sends this client performed
// (zero without StoreConfig.Retransmit, and zero on failure-free runs —
// retransmission is pay-only-on-fault).
func (a *StoreNode) Retransmits() int64 { return a.retransmits }

// ScriptedOps returns the length of the node's client script.
func (a *StoreNode) ScriptedOps() int { return a.scriptLen }

// LatencyHist exposes the node's per-op latency observations in its own
// client steps: one observation per completed op, measured from the op's
// start (closed loop) or scripted arrival (open loop — queueing included).
// Sweeps merge these exactly, so aggregated percentiles are bit-identical
// across worker counts.
func (a *StoreNode) LatencyHist() *sweep.Hist { return &a.lat }

// CleanLatencyHist and FaultedLatencyHist split the per-op latency
// observations by fault exposure: an op that paid at least one
// retransmission (which subsumes parking behind a partition — parked ops
// keep retransmitting) lands in the faulted histogram, every other op in
// the clean one. Together they partition LatencyHist exactly.
func (a *StoreNode) CleanLatencyHist() *sweep.Hist   { return &a.latClean }
func (a *StoreNode) FaultedLatencyHist() *sweep.Hist { return &a.latFaulted }

// FastReads returns the number of reads this client completed in one phase
// with the write-back elided; ReadFallbacks the reads that fell back to the
// full two-phase protocol despite StoreConfig.FastReads. Both are zero with
// the feature off.
func (a *StoreNode) FastReads() int64     { return a.fastReads }
func (a *StoreNode) ReadFallbacks() int64 { return a.fallbacks }

// Shards returns the shard map the node routes by.
func (a *StoreNode) Shards() *ShardMap { return a.shards }

// WindowOf returns the node's current pipelining window toward one shard:
// the configured fixed window, or the adaptive controller's current value.
func (a *StoreNode) WindowOf(sh int) int { return a.winFor(sh) }

// ReplicaStateBytes returns the bytes of per-key replica state this node
// allocates — the E19 metric: with the key space fixed, sharding shrinks it
// by the shard count, because a process only replicates its own shards.
// FastReads adds the per-key confirmed timestamp only when enabled.
func (a *StoreNode) ReplicaStateBytes() int {
	const perKey = int(unsafe.Sizeof(Timestamp{}) + unsafe.Sizeof(Value(0)))
	total := 0
	for sh := range a.ts {
		total += len(a.ts[sh]) * perKey
	}
	for sh := range a.conf {
		total += len(a.conf[sh]) * int(unsafe.Sizeof(Timestamp{}))
	}
	return total
}

// Recover implements sim.Recoverable: the runner calls it on the fresh
// post-recovery instance, which must shed everything that was volatile in
// the crashed process. Replica data is nilled (not zeroed in place) so it is
// visibly gone — ReplicaStateBytes drops to 0 — and repopulated exclusively
// through the protocol: locate re-allocates a shard's slices on first touch
// by an incoming store/write-back, and the zero timestamps a rejoined
// replica then answers with can only lose max-merges at clients, never
// fake a confirmation (conf = 0 ≤ ts keeps the CTS invariant). The client
// script dies with the process: its pending ops were volatile, and
// replaying them would re-issue writes whose values may already be applied.
// The recovered process rejoins as a replica-only learner.
func (a *StoreNode) Recover() {
	for sh := range a.ts {
		a.ts[sh] = nil
		a.val[sh] = nil
	}
	for sh := range a.conf {
		a.conf[sh] = nil
	}
	for sh := range a.queues {
		a.queues[sh] = a.queues[sh][:0]
	}
	a.queued = 0
	a.scriptLen = 0
}

// locate resolves a key to its shard and local replica index at this node;
// ok is false for keys out of range or shards this node does not replicate.
// An owned shard whose slices are nil marks a recovered replica: its state
// is lazily re-allocated (zero timestamps, zero values) on the first
// protocol touch, so repopulation costs a one-time transient and then rides
// the normal write-back/phase-2 paths allocation-free.
func (a *StoreNode) locate(key int) (sh, loc int, ok bool) {
	if key < 0 || key >= a.shards.Keys() {
		return 0, 0, false
	}
	sh = a.shards.Shard(key)
	if a.ts[sh] == nil {
		if !a.shards.Owns(a.self, sh) {
			return 0, 0, false
		}
		a.ts[sh] = make([]Timestamp, a.shards.KeysIn(sh))
		a.val[sh] = make([]Value, a.shards.KeysIn(sh))
		if a.cfg.FastReads && a.conf[sh] == nil {
			a.conf[sh] = make([]Timestamp, a.shards.KeysIn(sh))
		}
	}
	return sh, a.shards.Local(key), true
}

// Step implements sim.Automaton.
func (a *StoreNode) Step(e *sim.Env) {
	a.clock++ // scheduled-step clock: coalescing deadlines at clients and replicas
	if payload, from, ok := e.Delivered(); ok {
		a.onMessage(e, payload, from)
	}
	if a.s.Contains(a.self) && !a.Done() {
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
	a.absorbQueryReps(f.QR, from)
	a.absorbStoreReps(f.SR, from)
	if !a.cfg.Piggyback {
		a.sendReply(e) // rule 1: replies go out before the client's requests
	}
	// Unless the trace records messages, the runner transfers payload
	// ownership to this node (sim's send-buffer lease contract): the last
	// recipient of a frame recycles it once it is fully processed.
	if e.DeliveredOwned() && release(&f.refs) {
		a.pool.put(f)
	}
}

// serveQueries answers query requests from the node's replica state into
// the delivery's reply frame.
func (a *StoreNode) serveQueries(e *sim.Env, entries []queryEntry, from dist.ProcID) {
	for _, q := range entries {
		if sh, loc, ok := a.locate(q.Key); ok { // else misrouted: not this node's shard
			f := a.replyFrame(e, from)
			f.QR = append(f.QR, a.answerQuery(q, sh, loc))
		}
	}
}

// answerQuery builds the reply to one located query entry and, with
// FastReads, merges the query's piggybacked confirmation into the replica's
// confirmed timestamp. The merge is gated on CTS ≤ own ts: a confirmation
// may only be adopted by a replica that actually stores (at least) that
// write, which is what keeps the conf ≤ ts invariant — and with it the
// elision rule's safety — intact under any delivery order.
func (a *StoreNode) answerQuery(q queryEntry, sh, loc int) queryRepEntry {
	rep := queryRepEntry{Key: q.Key, RID: q.RID, TS: a.ts[sh][loc], V: a.val[sh][loc]}
	if a.cfg.FastReads {
		if a.conf[sh][loc].Less(q.CTS) && !a.ts[sh][loc].Less(q.CTS) {
			a.conf[sh][loc] = q.CTS
		}
		rep.CTS = a.conf[sh][loc]
	}
	return rep
}

// serveStores applies store (phase-2) requests to the replica state and
// acknowledges them into the delivery's reply frame.
func (a *StoreNode) serveStores(e *sim.Env, entries []storeEntry, from dist.ProcID) {
	for _, s := range entries {
		if sh, loc, ok := a.locate(s.Key); ok {
			if a.ts[sh][loc].Less(s.TS) {
				a.ts[sh][loc], a.val[sh][loc] = s.TS, s.V
			}
			f := a.replyFrame(e, from)
			f.SR = append(f.SR, storeRepEntry{Key: s.Key, RID: s.RID})
		}
	}
}

// replyFrame returns the frame the next reply to from joins, leasing it on
// the delivery's first reply. With batching disabled a frame holds at most
// one entry, so a non-empty reply frame departs first.
func (a *StoreNode) replyFrame(e *sim.Env, from dist.ProcID) *storeFrame {
	if a.rep != nil && a.cfg.DisableBatching {
		a.sendReply(e)
	}
	if a.rep == nil {
		a.rep, a.repDst = a.pool.get(), from
	}
	return a.rep
}

// sendReply sends the pending reply frame, if any.
func (a *StoreNode) sendReply(e *sim.Env) {
	if a.rep != nil {
		a.rep.refs = 1
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
// Controller state is a pure function of the node's observation sequence,
// so sweep verdicts stay bit-identical across worker counts.
func (a *StoreNode) adaptWindows() {
	if !a.cfg.AdaptiveWindow {
		return
	}
	for sh := range a.win {
		w := &a.win[sh]
		if a.doneMask.Has(sh) || a.load[sh] == 0 {
			w.idle = 0
			continue
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
	}
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
	// Coalescing parks a request for up to CoalesceDelay steps in this
	// node's own accumulators — the timer restarts when it actually departs
	// (restamp), so the local park never burns RTO
	// budget — and parks its reply for up to CoalesceDelay *replica* steps,
	// which this client cannot observe. The 2D slack covers the not-yet-
	// departed window plus the replica-side park, so a parked-but-healthy
	// exchange never looks lost.
	slack := 2 * int64(a.cfg.CoalesceDelay)
	for i := range a.pend {
		op := &a.pend[i]
		if a.steps-op.lastSend < int64(op.rto)+slack {
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
	}
}

// restamp resets the retransmission timer of every outstanding op whose
// current-phase request departs in f: f.Q carries phase-1 requests, f.S
// phase-2 ones. Coalescing may park a request in the sender's own
// accumulators for up to CoalesceDelay steps; the RTO measures the network
// round trip, which only starts at departure. Matching is by (key, rid), so
// stale entries of a superseded phase restamp nothing. Without coalescing a
// request departs in the step that queued it, whose clock its timer already
// holds, so there is nothing to do.
func (a *StoreNode) restamp(f *storeFrame) {
	if a.cfg.CoalesceDelay == 0 || !a.cfg.Retransmit {
		return
	}
	for i := range a.pend {
		op := &a.pend[i]
		if op.phase == 1 {
			for _, q := range f.Q {
				if q.Key == op.key && q.RID == op.rid {
					op.lastSend = a.steps
					break
				}
			}
		} else {
			for _, s := range f.S {
				if s.Key == op.key && s.RID == op.rid {
					op.lastSend = a.steps
					break
				}
			}
		}
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
			if sh, loc, owned := a.locate(op.key); owned {
				// The local replica stores and answers immediately.
				op.acks = dist.NewProcSet(a.self)
				if a.ts[sh][loc].Less(st) {
					a.ts[sh][loc], a.val[sh][loc] = st, v
				}
			}
			a.sOut[op.shard] = append(a.sOut[op.shard], storeEntry{Key: op.key, RID: op.rid, TS: st, V: v})
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

// finish retires one completed op: the Return record (traced runs only),
// the latency observations (total plus the clean/faulted fault-exposure
// split), the window bookkeeping, and — with FastReads — confirmation of
// op.best, which this completion just proved is stored at a quorum.
func (a *StoreNode) finish(e *sim.Env, op *storeOp) {
	if e.OpsRecorded() {
		desc := KeyedOpDesc{Key: op.key, Kind: op.kind, Arg: op.arg}
		if op.kind == ReadOp {
			desc.Ret = op.bestVal
		}
		e.Return(op.seq, desc)
	}
	d := a.steps - op.invoke
	a.lat.Observe(d)
	if op.faulted {
		a.latFaulted.Observe(d)
	} else {
		a.latClean.Observe(d)
	}
	a.completed++
	a.load[op.shard]--
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
	if sh, loc, owned := a.locate(key); owned {
		if a.conf[sh][loc].Less(ts) && !a.ts[sh][loc].Less(ts) {
			a.conf[sh][loc] = ts
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
// the op's measured latency.
func (a *StoreNode) start(e *sim.Env) {
	for sh := range a.queues {
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
			a.queued--
			a.opSeq++
			a.rid++
			if e.OpsRecorded() {
				e.Invoke(a.opSeq, KeyedOpDesc{Key: op.Key, Kind: op.Kind, Arg: op.Arg})
			}
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
			if s, loc, owned := a.locate(op.Key); owned {
				pend.acks = dist.NewProcSet(a.self)
				pend.best, pend.bestVal = a.ts[s][loc], a.val[s][loc]
				if a.cfg.FastReads {
					// The local self-answer is the op's first credited
					// reply; it carries the local confirmed ts.
					pend.sawReply = true
					pend.bestConf = a.conf[s][loc]
				}
			}
			a.pend = append(a.pend, pend)
			a.load[sh]++
			q := queryEntry{Key: op.Key, RID: a.rid}
			if a.cfg.FastReads {
				q.CTS = a.confClient[op.Key]
			}
			a.qOut[sh] = append(a.qOut[sh], q)
		}
	}
}

// flush sends what the step produced and clears every per-step
// accumulator, under the send-order rules above the wire types: per-shard
// request snapshots (rule 2) or their fold into per-destination frames
// together with the step's replies (rule 3). Requests only travel to their
// shard's replica group — the routing that keeps quorum traffic off
// processes outside the group. With coalescing armed an under-filled
// accumulator or frame may park across steps (see park); a snapshot frame
// is leased only at send time, so parking costs no extra pool traffic.
func (a *StoreNode) flush(e *sim.Env) {
	for sh := range a.qOut {
		if len(a.qOut[sh]) > 0 {
			flushRequests(a, e, sh, &a.qOut[sh], a.qHeldT, querySection)
		}
		if len(a.sOut[sh]) > 0 {
			flushRequests(a, e, sh, &a.sOut[sh], a.sHeldT, storeSection)
		}
	}
	if r := a.rep; r != nil {
		// Piggybacking: the step's replies join the reply destination's
		// frame, touched after every request frame.
		a.rep = nil
		f := a.frameFor(a.repDst)
		f.QR = append(f.QR, r.QR...)
		f.SR = append(f.SR, r.SR...)
		a.pool.put(r)
	}
	// Lease order — and thus send order — survives parking through the
	// in-place compaction of outDsts. Replicas park their reply frames on
	// the same clock: their Step ticks it even though the client block
	// never runs there.
	kept := a.outDsts[:0]
	for _, p := range a.outDsts {
		if a.park(a.frameT, int(p), false) {
			kept = append(kept, p)
			continue
		}
		f := a.outFrame[p]
		a.outFrame[p] = nil
		a.restamp(f)
		f.refs = 1
		e.Send(p, f)
	}
	a.outDsts = kept
}

func querySection(f *storeFrame) *[]queryEntry { return &f.Q }
func storeSection(f *storeFrame) *[]storeEntry { return &f.S }

// flushRequests flushes one non-empty (shard, kind) request accumulator —
// section picks the frame section of its kind — unless it parks. With
// piggybacking the entries fold into the frame under construction of every
// other group member; otherwise one snapshot frame goes to the whole group,
// or one frame per entry with batching disabled.
func flushRequests[E queryEntry | storeEntry](a *StoreNode, e *sim.Env, sh int, out *[]E, held []int64, section func(*storeFrame) *[]E) {
	entries := *out
	if a.park(held, sh, len(entries) >= a.winFor(sh)) {
		return
	}
	*out = entries[:0]
	group := a.shards.Group(sh).Remove(a.self) // the local replica answered in-process
	if a.cfg.Piggyback {
		for set := group; !set.IsEmpty(); {
			p := set.Min()
			set = set.Remove(p)
			sec := section(a.frameFor(p))
			*sec = append(*sec, entries...)
		}
		return
	}
	per := len(entries)
	if a.cfg.DisableBatching {
		per = 1
	}
	for i := 0; i < len(entries); i += per {
		f := a.pool.get()
		sec := section(f)
		*sec = append(*sec, entries[i:i+per]...)
		a.restamp(f)
		f.refs = int32(group.Len())
		if f.refs == 0 {
			a.pool.put(f)
			continue
		}
		for set := group; !set.IsEmpty(); {
			p := set.Min()
			set = set.Remove(p)
			e.Send(p, f)
		}
	}
}

// park reports whether parked slot i of held — an accumulator or a frame —
// should keep waiting for more same-destination traffic: its age is below
// the CoalesceDelay budget and it is not full (a full window cannot grow —
// every slot already contributed, and the completions that would free slots
// are gated on this very flush, so waiting longer is pure latency loss).
// The age counts from the first flush that parked the slot; a slot that
// departs is reset. Without coalescing held is nil and nothing parks.
func (a *StoreNode) park(held []int64, i int, full bool) bool {
	if held == nil {
		return false
	}
	if held[i] < 0 {
		held[i] = a.clock
	}
	if a.clock-held[i] < int64(a.cfg.CoalesceDelay) && !full {
		return true
	}
	held[i] = -1
	return false
}

// frameFor returns the frame under construction for destination p, leasing
// a pooled one on first use and recording the flush order.
func (a *StoreNode) frameFor(p dist.ProcID) *storeFrame {
	if f := a.outFrame[p]; f != nil {
		return f
	}
	f := a.pool.get()
	a.outFrame[p] = f
	a.outDsts = append(a.outDsts, p)
	return f
}
