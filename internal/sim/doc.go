// Package sim is the asynchronous message-passing substrate of the
// reproduction: a deterministic discrete-event simulator implementing the
// computational model of Section 2 of "Sharing is Harder than Agreeing"
// (PODC 2008).
//
// # Model
//
// A run advances one step per tick of the global clock: the scheduler picks
// a process, that process receives at most one pending message, queries its
// failure-detector history once, updates its state and sends messages.
// The runner applies the failure pattern's transitions in order: a crashed
// process takes no step until it recovers, if ever, with its automaton back
// in the constructed state (rewound in place, or fresh from the Program).
// Channels are reliable: delivery can be delayed arbitrarily (and
// adversarially, via FaultPlan partitions and delays and by schedulers that
// pick which message a step receives, if any) but the fair schedulers
// deliver every message to a correct process eventually.
//
// # Drivers
//
// Run executes a single seeded or scripted run and records a trace; Explore
// enumerates every interleaving of a bounded configuration and checks a
// safety predicate in every reachable state. ReplayScript reconstructs a
// recorded schedule so the impossibility harnesses can replay a prefix
// verbatim, which trace.IndistinguishableTo then verifies.
//
// # Stacking
//
// Failure-detector reductions (Figures 3, 5, 6 of the paper) run as layered
// automata: NewStack wires each layer's QueryFD to the emulated output of
// the layer below, with the bottom layer querying the configured oracle
// history, and routes each message to the layer that sent it.
package sim
