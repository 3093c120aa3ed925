// Package register implements the S-register abstraction of the paper over
// message passing: an atomic (linearizable) multi-writer multi-reader
// register that only processes of a subset S may read and write, emulated by
// all n processes à la Attiya-Bar-Noy-Dolev with quorums supplied by the
// failure detector Σ_S (Proposition 1: Σ_S is the weakest failure detector
// for an S-register; this package is the "sufficient" direction).
//
// The one ABD automaton is StoreNode (store.go), a sharded keyed store of
// such registers; the single S-register of Proposition 1 is StoreProgram
// with StoreConfig{Keys: 1, Window: 1}. The package also provides an offline linearizability checker for register
// histories (linearizability.go), used to validate every run.
package register

import "repro/internal/dist"

// Value is the register value domain. The register initially holds 0.
type Value int64

// Timestamp orders writes: lexicographic (Seq, PID) as in ABD.
type Timestamp struct {
	Seq int64
	PID dist.ProcID
}

// Less reports whether t precedes u.
func (t Timestamp) Less(u Timestamp) bool {
	if t.Seq != u.Seq {
		return t.Seq < u.Seq
	}
	return t.PID < u.PID
}

// OpKind distinguishes reads from writes.
type OpKind uint8

// Operation kinds.
const (
	ReadOp OpKind = iota + 1
	WriteOp
)

// String names the kind.
func (k OpKind) String() string {
	if k == ReadOp {
		return "read"
	}
	return "write"
}
