package register

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/dist"
	"repro/internal/trace"
)

// OpRecord is one completed-or-pending register operation extracted from a
// run trace, with its real-time invocation/response window.
type OpRecord struct {
	Proc     dist.ProcID
	Seq      int64
	Kind     OpKind
	Arg      Value // written value
	Ret      Value // read result
	Invoked  dist.Time
	Returned dist.Time
	Complete bool
}

// String renders the record.
func (o OpRecord) String() string {
	body := fmt.Sprintf("write(%d)", int64(o.Arg))
	if o.Kind == ReadOp {
		body = fmt.Sprintf("read()=%d", int64(o.Ret))
	}
	end := "…"
	if o.Complete {
		end = fmt.Sprintf("%d", int64(o.Returned))
	}
	return fmt.Sprintf("p%d %s [%d,%s]", int(o.Proc), body, int64(o.Invoked), end)
}

// ExtractKeyedOps pairs the Invoke/Return events of a keyed store trace
// (KeyedOpDesc payloads) into per-key operation records, each key's history
// ordered by invocation time.
func ExtractKeyedOps(tr *trace.Trace) map[int][]OpRecord {
	type ik struct {
		p   dist.ProcID
		seq int64
	}
	type slot struct{ key, idx int }
	idx := make(map[ik]slot)
	byKey := make(map[int][]OpRecord)
	for _, e := range tr.Events() {
		desc, ok := e.Payload.(KeyedOpDesc)
		if !ok {
			continue
		}
		k := ik{p: e.P, seq: e.Seq}
		switch e.Kind {
		case trace.InvokeKind:
			idx[k] = slot{key: desc.Key, idx: len(byKey[desc.Key])}
			byKey[desc.Key] = append(byKey[desc.Key], OpRecord{
				Proc: e.P, Seq: e.Seq, Kind: desc.Kind, Arg: desc.Arg, Invoked: e.T,
			})
		case trace.ReturnKind:
			if s, found := idx[k]; found {
				o := &byKey[s.key][s.idx]
				o.Returned, o.Ret, o.Complete = e.T, desc.Ret, true
			}
		}
	}
	for _, ops := range byKey {
		sort.SliceStable(ops, func(i, j int) bool { return ops[i].Invoked < ops[j].Invoked })
	}
	return byKey
}

// CheckKeyedLinearizable runs the register checker independently on every
// key's history — the store multiplexes independent S-registers, so
// linearizability is exactly per-key linearizability. Keys are checked in
// ascending order, making failure messages deterministic. Every register
// starts at initial. A rejection names the key, the violation and the ops
// that witness it, then lists the key's history; a key that breaks the
// unique-write precondition is reported as an error of its own.
func CheckKeyedLinearizable(byKey map[int][]OpRecord, initial Value) error {
	keys := make([]int, 0, len(byKey))
	maxWrites := 0
	for k, ops := range byKey {
		keys = append(keys, k)
		maxWrites = max(maxWrites, countWrites(ops))
	}
	sort.Ints(keys)
	c := zoneChecker{cl: make([]cluster, 0, maxWrites+1)}
	for _, k := range keys {
		ops := byKey[k]
		witness, err := c.check(ops, initial)
		if err != nil {
			return fmt.Errorf("key %d: %w", k, err)
		}
		if witness != "" {
			return fmt.Errorf("key %d: %s\n%s", k, witness, ExplainNonLinearizable(ops))
		}
	}
	return nil
}

// CheckLinearizable decides whether a register history is linearizable with
// respect to the atomic read/write register starting at initial. Pending
// operations (incomplete at the end of the run) may take effect or be
// dropped. The history must write every value at most once and never write
// initial; a history that does not is an error, not a verdict.
func CheckLinearizable(ops []OpRecord, initial Value) (bool, error) {
	c := zoneChecker{cl: make([]cluster, 0, countWrites(ops)+1)}
	witness, err := c.check(ops, initial)
	return err == nil && witness == "", err
}

func countWrites(ops []OpRecord) int {
	n := 0
	for _, o := range ops {
		if o.Kind == WriteOp {
			n++
		}
	}
	return n
}

// Time sentinels: the initial value's virtual write returns at −∞, and a
// pending write never returns.
const (
	minusInf = dist.Time(math.MinInt64)
	plusInf  = dist.Time(math.MaxInt64)
)

// cluster is one write together with the complete reads that return its
// value, reduced to the bounds of its zone: f is the earliest response in
// the cluster and s the latest invocation, with fOp and sOp the indices of
// the ops that attain them (-1 for the initial value's virtual write). A
// pending write never returns, so its f stays +∞ unless a read returns its
// value.
type cluster struct {
	val      Value
	w        int // index of the write in the history; -1 for the initial value
	f, s     dist.Time
	fOp, sOp int
}

// forward reports whether the cluster's zone is a forward zone: some op of
// the cluster returns strictly before another one is invoked.
func (z *cluster) forward() bool { return z.f < z.s }

// zoneChecker decides register linearizability for histories whose writes
// carry unique values, by the zone test of Gibbons & Korach (Testing Shared
// Memories, SIAM J. Comput. 1997) as stated by Golab, Li & Shah (PODC 2011).
//
// With unique values every linearization is a sequence of clusters, each a
// write followed by its reads, so the question is whether the clusters can
// be ordered. Op a precedes op b when a.Returned < b.Invoked — strictly, so
// ops sharing a tick are concurrent. Cluster C must then come before
// cluster D exactly when f(C) < s(D), and the clusters can be ordered iff
// no two of them must each come before the other: no two forward zones
// (f, s) overlap and no backward zone [s, f] lies strictly inside a forward
// zone. A longer cycle always contains such a pair: take the cluster A of
// least f on it. Its predecessor Z has f(Z) < s(A), so A is forward; if A
// need not also come before Z, then s(Z) ≤ f(A), and Z's own predecessor
// would have an f below f(A). Within a cluster the write
// must come first, so a read that returns before its write is invoked is
// rejected directly. That makes the check O(n log n): sort the writes by
// value, binary-search each read's, sort the forward zones by f and
// binary-search each backward zone among them.
//
// cl is scratch reused across histories.
type zoneChecker struct {
	cl []cluster
}

// check returns "" if ops is linearizable from initial and otherwise a
// witness naming the violation and the ops that show it. The error reports
// a history that breaks the unique-write precondition.
func (c *zoneChecker) check(ops []OpRecord, initial Value) (string, error) {
	// cl[0] is the initial value's cluster; cl[1:] holds one cluster per
	// write, sorted by value.
	c.cl = append(c.cl[:0], cluster{val: initial, w: -1, f: minusInf, s: minusInf, fOp: -1, sOp: -1})
	for i, o := range ops {
		if o.Kind != WriteOp {
			continue
		}
		f := plusInf
		if o.Complete {
			f = o.Returned
		}
		c.cl = append(c.cl, cluster{val: o.Arg, w: i, f: f, s: o.Invoked, fOp: i, sOp: i})
	}
	ws := c.cl[1:]
	slices.SortFunc(ws, func(a, b cluster) int {
		return cmp.Or(cmp.Compare(a.val, b.val), cmp.Compare(a.w, b.w))
	})
	for i := range ws {
		if ws[i].val == initial {
			return "", fmt.Errorf("register: %v writes the initial value %d; the zone checker needs every written value to differ from it", ops[ws[i].w], int64(initial))
		}
		if i > 0 && ws[i].val == ws[i-1].val {
			return "", fmt.Errorf("register: value %d is written twice, by %v and by %v; the zone checker needs unique write values per key", int64(ws[i].val), ops[ws[i-1].w], ops[ws[i].w])
		}
	}

	// Pending reads constrain nothing and are dropped.
	for i, o := range ops {
		if o.Kind != ReadOp || !o.Complete {
			continue
		}
		z := &c.cl[0]
		if o.Ret != initial {
			j, found := slices.BinarySearchFunc(ws, o.Ret, func(z cluster, v Value) int { return cmp.Compare(z.val, v) })
			if !found {
				return fmt.Sprintf("%v returns %d, a value no write on this key produced", o, int64(o.Ret)), nil
			}
			z = &ws[j]
			if w := ops[z.w]; o.Returned < w.Invoked {
				return fmt.Sprintf("%v returns before %v, the write of its value, is invoked", o, w), nil
			}
		}
		if o.Returned < z.f {
			z.f, z.fOp = o.Returned, i
		}
		if o.Invoked > z.s {
			z.s, z.sOp = o.Invoked, i
		}
	}

	// Forward zones go to the front. The clusters that constrain nothing
	// need no special case: the initial value's, if unread, has the zone
	// [−∞, −∞], and an unread pending write's is [invoked, +∞], so neither
	// is forward or fits inside a forward zone — exactly as if dropped.
	nf := 0
	for i := range c.cl {
		if c.cl[i].forward() {
			c.cl[i], c.cl[nf] = c.cl[nf], c.cl[i]
			nf++
		}
	}
	fwd, bwd := c.cl[:nf], c.cl[nf:]
	slices.SortFunc(fwd, func(a, b cluster) int { return cmp.Compare(a.f, b.f) })
	// Sorted by f, the forward zones are pairwise disjoint iff each one
	// opens no earlier than its predecessor closes.
	for i := 1; i < len(fwd); i++ {
		if fwd[i].f < fwd[i-1].s {
			return fmt.Sprintf("%s overlaps %s, so each write must take effect before the other", describeZone(ops, &fwd[i-1]), describeZone(ops, &fwd[i])), nil
		}
	}
	// Disjoint and sorted, only the last forward zone opening before a
	// backward zone starts can contain it.
	for i := range bwd {
		b := &bwd[i]
		j, _ := slices.BinarySearchFunc(fwd, b.s, func(z cluster, t dist.Time) int { return cmp.Compare(z.f, t) })
		if j > 0 && b.f < fwd[j-1].s {
			return fmt.Sprintf("%s lies inside %s, so each write must take effect before the other", describeZone(ops, b), describeZone(ops, &fwd[j-1])), nil
		}
	}
	return "", nil
}

// describeZone renders a cluster's zone with the two ops that bound it.
func describeZone(ops []OpRecord, z *cluster) string {
	name := fmt.Sprintf("value %d", int64(z.val))
	if z.w < 0 {
		name = fmt.Sprintf("initial value %d", int64(z.val))
	}
	opAt := func(i int) string {
		if i < 0 {
			return "the initial value"
		}
		return ops[i].String()
	}
	if z.forward() {
		return fmt.Sprintf("the forward zone of %s (%s returns at %s, before %s is invoked at %d)",
			name, opAt(z.fOp), tick(z.f), opAt(z.sOp), int64(z.s))
	}
	return fmt.Sprintf("the backward zone of %s (%s is invoked at %d, no later than %s returns at %s)",
		name, opAt(z.sOp), int64(z.s), opAt(z.fOp), tick(z.f))
}

// tick renders a reported zone bound. Only the initial value's f can be
// infinite there: a reported zone never ends at a pending write's +∞.
func tick(t dist.Time) string {
	if t == minusInf {
		return "-∞"
	}
	return strconv.FormatInt(int64(t), 10)
}

// maxListedOps bounds the ops a failure message lists.
const maxListedOps = 64

// ExplainNonLinearizable renders a history for failure messages, listing at
// most maxListedOps ops and counting the rest.
func ExplainNonLinearizable(ops []OpRecord) string {
	var b strings.Builder
	b.WriteString("history not linearizable:")
	for i, o := range ops {
		if i == maxListedOps {
			fmt.Fprintf(&b, "\n  … and %d more ops", len(ops)-i)
			break
		}
		b.WriteString("\n  ")
		b.WriteString(o.String())
	}
	return b.String()
}
