package register

import (
	"fmt"
	"sort"

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

// MaxOpsPerHistory is the Wing-Gong checker's hard per-history budget: the
// search tracks linearization subsets as one uint64 bitmask, so a history
// may hold at most 64 operations. Workload generators must respect it per
// key (see MaxOpsPerKey); CheckKeyedLinearizable rejects oversized keys up
// front with an error naming the key.
const MaxOpsPerHistory = 64

// CheckKeyedLinearizable runs the register checker independently on every
// key's history — the store multiplexes independent S-registers, so
// linearizability is exactly per-key linearizability. Keys are checked in
// ascending order, making failure messages deterministic. Every register
// starts at initial. A key whose history exceeds MaxOpsPerHistory is a
// setup error reported before any search runs.
func CheckKeyedLinearizable(byKey map[int][]OpRecord, initial Value) error {
	keys := make([]int, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		if n := len(byKey[k]); n > MaxOpsPerHistory {
			return fmt.Errorf("register: key %d has %d ops, over the checker's %d-op mask budget — spread the workload over more keys or lower ops per key", k, n, MaxOpsPerHistory)
		}
		ok, err := CheckLinearizable(byKey[k], initial)
		if err != nil {
			return fmt.Errorf("key %d: %w", k, err)
		}
		if !ok {
			return fmt.Errorf("key %d: %s", k, ExplainNonLinearizable(byKey[k]))
		}
	}
	return nil
}

// CheckLinearizable decides whether a register history is linearizable with
// respect to the atomic read/write register starting at `initial`, using
// Wing-Gong exhaustive search with memoization. Incomplete operations
// (pending at the end of the run) may linearize or be dropped.
//
// The search is exponential in the width of concurrency but histories of up
// to 64 operations check instantly at the concurrency levels the simulator
// produces. More than 64 operations is a setup error.
func CheckLinearizable(ops []OpRecord, initial Value) (bool, error) {
	if len(ops) > MaxOpsPerHistory {
		return false, fmt.Errorf("register: history of %d ops exceeds the checker's %d-op limit", len(ops), MaxOpsPerHistory)
	}
	c := linChecker{ops: ops, memo: make(map[linState]bool)}
	var completeMask uint64
	for i, o := range ops {
		if o.Complete {
			completeMask |= 1 << uint(i)
		}
	}
	c.completeMask = completeMask
	if c.search(0, initial) {
		return true, nil
	}
	return false, nil
}

type linState struct {
	mask uint64
	cur  Value
}

type linChecker struct {
	ops          []OpRecord
	completeMask uint64
	memo         map[linState]bool
}

// search tries to extend a linearization in which the operations of `mask`
// have taken effect and the register currently holds cur.
func (c *linChecker) search(mask uint64, cur Value) bool {
	if mask&c.completeMask == c.completeMask {
		return true // every complete op linearized; pending ops may be dropped
	}
	st := linState{mask: mask, cur: cur}
	if v, ok := c.memo[st]; ok {
		return v
	}
	c.memo[st] = false // guard against re-entry; overwritten below

	// minRet is the earliest response among unlinearized complete ops: an
	// operation may linearize next only if it was invoked at or before that
	// response (otherwise the completed op would have to precede it).
	minRet := dist.Time(1<<62 - 1)
	for i, o := range c.ops {
		if mask&(1<<uint(i)) == 0 && o.Complete && o.Returned < minRet {
			minRet = o.Returned
		}
	}
	ok := false
	for i, o := range c.ops {
		bit := uint64(1) << uint(i)
		if mask&bit != 0 || o.Invoked > minRet {
			continue
		}
		switch o.Kind {
		case WriteOp:
			if c.search(mask|bit, o.Arg) {
				ok = true
			}
		case ReadOp:
			if (!o.Complete || o.Ret == cur) && c.search(mask|bit, cur) {
				ok = true
			}
		}
		if ok {
			break
		}
	}
	c.memo[st] = ok
	return ok
}

// ExplainNonLinearizable renders a short description of the history for
// failure messages.
func ExplainNonLinearizable(ops []OpRecord) string {
	s := "history not linearizable:"
	for _, o := range ops {
		s += "\n  " + o.String()
	}
	return s
}
