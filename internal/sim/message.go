package sim

import (
	"fmt"

	"repro/internal/dist"
)

// Layer identifies which protocol layer of a stacked automaton a message
// belongs to. Layer 0 is the bottom of the stack (the layer that queries the
// oracle failure detector); higher layers query the emulated output of the
// layer below. Unstacked automata send and receive on layer 0.
type Layer int8

// Message is an immutable envelope in transit on the reliable channels.
// Payloads are treated as immutable values: automata must not retain and
// mutate a payload after sending it.
//
// Fields are ordered widest first, so the small ones share one word and a
// Message carries no interior padding (40 B on 64-bit targets); every
// composite literal names its fields.
type Message struct {
	Seq     int64 // globally unique, increasing in send order
	Sent    dist.Time
	Payload any
	From    dist.ProcID
	To      dist.ProcID
	Layer   Layer
}

// String renders the message for logs and test failures.
func (m *Message) String() string {
	return fmt.Sprintf("msg#%d p%d->p%d @%d L%d %v", m.Seq, int(m.From), int(m.To), int64(m.Sent), int8(m.Layer), m.Payload)
}
