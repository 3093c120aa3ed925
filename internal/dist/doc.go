// Package dist holds the basic vocabulary of the distributed-computing
// model: process identifiers, the global discrete clock, process sets and
// failure patterns (Section 2 of the paper).
//
// The package is the innermost dependency of the whole repository and sits
// on every hot path of the simulator, so its representations are chosen for
// speed first:
//
//   - ProcSet is a fixed-width multi-word bitmask ([MaxProcs/64]uint64,
//     MaxProcs = 256). Membership, union, intersection and subset tests are
//     a handful of word operations with no branches on set size;
//     cardinality is a popcount per word. ProcSet is a comparable value
//     type, so it can key maps and be compared with ==, and every method is
//     pure and allocation-free (except Members and String).
//   - FailurePattern keeps its crash and recovery transitions sorted in the
//     order a run applies them, with the down set per distinct transition
//     time, so AliveAt and Correct are allocation-free lookups and the
//     runner walks Transitions with one cursor.
//
// All operations on ProcSet are pure (they return a new set); operations on
// FailurePattern mutate it during setup (CrashAt, RecoverAt) and every read
// is pure, so one pattern can be shared by concurrent runs.
package dist
