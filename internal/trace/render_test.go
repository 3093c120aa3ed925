package trace

import (
	"strings"
	"testing"

	"repro/internal/dist"
)

func TestRender(t *testing.T) {
	var tr Trace
	tr.Append(Event{T: 0, P: 1, Kind: StepKind, FD: "∅"})
	tr.Append(Event{T: 0, P: 1, Kind: SendKind, To: 2, Payload: "hello"})
	tr.Append(Event{T: 1, P: 2, Kind: StepKind, Delivered: true, From: 1, Payload: "hello"})
	tr.Append(Event{T: 2, P: 2, Kind: DecideKind, Payload: 42})
	tr.Append(Event{T: 3, P: 3, Kind: CrashKind})
	tr.Append(Event{T: 3, P: 2, Kind: RecoverKind})
	tr.Append(Event{T: 4, P: 1, Kind: EmuKind, Payload: "{p1}"})
	tr.Append(Event{T: 5, P: 1, Kind: InvokeKind, Payload: "read"})
	tr.Append(Event{T: 6, P: 1, Kind: ReturnKind, Payload: "read=0"})

	out := Render(&tr, RenderOptions{N: 3})
	for _, want := range []string{
		"step  fd=∅",
		"send  hello to p2",
		"recv hello from p1",
		"DECIDE 42",
		"CRASH",
		"t=3      p2   RECOVER",
		"emu-output ← {p1}",
		"invoke read",
		"return read=0",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestRenderWindowAndRowCap(t *testing.T) {
	var tr Trace
	for i := 0; i < 50; i++ {
		tr.Append(Event{T: dist.Time(i), P: 1, Kind: StepKind})
	}
	out := Render(&tr, RenderOptions{N: 1, From: 10, To: 19})
	if lines := strings.Count(out, "\n"); lines != 10 {
		t.Fatalf("window rendered %d lines, want 10:\n%s", lines, out)
	}
	out = Render(&tr, RenderOptions{N: 1, MaxRows: 5})
	if !strings.Contains(out, "more events") {
		t.Fatalf("row cap not applied:\n%s", out)
	}
}

// TestRenderTruncatedWindowCountsOnlyItsRest: the truncation line counts the
// window's events that were not rendered — not the events outside the
// window, and not the ones Render skips.
func TestRenderTruncatedWindowCountsOnlyItsRest(t *testing.T) {
	var tr Trace
	for i := 0; i < 50; i++ {
		tr.Append(Event{T: dist.Time(i), P: 1, Kind: StepKind})
		tr.Append(Event{T: dist.Time(i), P: 1, Kind: Kind(99)}) // not rendered
	}
	out := Render(&tr, RenderOptions{N: 1, From: 10, To: 29, MaxRows: 5})
	want := "t=10     p1   step\n" +
		"t=11     p1   step\n" +
		"t=12     p1   step\n" +
		"t=13     p1   step\n" +
		"t=14     p1   step\n" +
		"... (15 more events)\n"
	if out != want {
		t.Fatalf("rendered:\n%s\nwant:\n%s", out, want)
	}
	if out := Render(&tr, RenderOptions{N: 1, From: 10, To: 14, MaxRows: 5}); strings.Contains(out, "more events") {
		t.Fatalf("a window that fits must not be marked truncated:\n%s", out)
	}
}
