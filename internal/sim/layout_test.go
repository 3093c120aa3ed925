package sim

import (
	"testing"
	"unsafe"

	"repro/internal/dist"
)

// TestMessageLayout pins the inbox's memory layout on any architecture: a
// Message is the sum of its field sizes rounded up to its alignment (no
// interior padding), and an inbox entry adds exactly one Time to it (the
// tombstone flag lives in notBefore).
func TestMessageLayout(t *testing.T) {
	var m Message
	fields := unsafe.Sizeof(m.Seq) + unsafe.Sizeof(m.Sent) + unsafe.Sizeof(m.Payload) +
		unsafe.Sizeof(m.From) + unsafe.Sizeof(m.To) + unsafe.Sizeof(m.Layer)
	align := unsafe.Alignof(m)
	if got, want := unsafe.Sizeof(m), (fields+align-1)/align*align; got != want {
		t.Fatalf("Message is %d B, want its %d B of fields rounded up to %d-byte alignment = %d B", got, fields, align, want)
	}
	if got, want := unsafe.Sizeof(inboxEntry{}), unsafe.Sizeof(m)+unsafe.Sizeof(dist.Time(0)); got != want {
		t.Fatalf("inboxEntry is %d B, want a Message plus one Time = %d B", got, want)
	}
}
