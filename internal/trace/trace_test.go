package trace

import (
	"testing"

	"repro/internal/dist"
)

func step(p dist.ProcID, t dist.Time, delivered bool, payload, fdVal any) Event {
	return Event{T: t, P: p, Kind: StepKind, Delivered: delivered, Payload: payload, FD: fdVal}
}

func TestLocalView(t *testing.T) {
	var tr Trace
	tr.Append(step(1, 0, false, nil, "a"))
	tr.Append(step(2, 1, true, "x", "b"))
	tr.Append(step(1, 2, true, "y", "c"))
	tr.Append(Event{T: 3, P: 1, Kind: DecideKind, Payload: 7})

	v := LocalView(&tr, 1)
	if len(v) != 2 {
		t.Fatalf("len=%d, want 2 (decide events are not observations)", len(v))
	}
	if v[0].Delivered || v[0].FD != "a" {
		t.Fatalf("v[0]=%+v", v[0])
	}
	if !v[1].Delivered || v[1].Payload != "y" {
		t.Fatalf("v[1]=%+v", v[1])
	}
}

func TestIndistinguishable(t *testing.T) {
	var a, b Trace
	a.Append(step(1, 0, false, nil, 1))
	a.Append(step(1, 1, true, "m", 2))
	b.Append(step(1, 5, false, nil, 1)) // same observations at different times
	b.Append(step(1, 9, true, "m", 2))
	if !IndistinguishableTo(&a, &b, 1, -1) {
		t.Fatal("identical observation sequences must be indistinguishable")
	}
	b.Append(step(1, 10, true, "n", 3))
	if !IndistinguishableTo(&a, &b, 1, 2) {
		t.Fatal("prefix comparison failed")
	}
	if IndistinguishableTo(&a, &b, 1, 3) {
		t.Fatal("a has no third step; requiring 3 must fail")
	}

	var c Trace
	c.Append(step(1, 0, false, nil, 1))
	c.Append(step(1, 1, true, "DIFFERENT", 2))
	if IndistinguishableTo(&a, &c, 1, -1) {
		t.Fatal("different payloads must distinguish")
	}
}

func TestOutputAt(t *testing.T) {
	var tr Trace
	tr.Append(Event{T: -1, P: 1, Kind: EmuKind, Payload: "init"})
	tr.Append(Event{T: 5, P: 1, Kind: EmuKind, Payload: "later"})
	tr.Append(Event{T: 9, P: 2, Kind: EmuKind, Payload: "other"})

	if v, ok := OutputAt(&tr, 1, 0); !ok || v != "init" {
		t.Fatalf("OutputAt(1,0)=%v,%v", v, ok)
	}
	if v, ok := OutputAt(&tr, 1, 5); !ok || v != "later" {
		t.Fatalf("OutputAt(1,5)=%v,%v", v, ok)
	}
	if v, ok := OutputAt(&tr, 1, 100); !ok || v != "later" {
		t.Fatalf("OutputAt(1,100)=%v,%v", v, ok)
	}
	if _, ok := OutputAt(&tr, 3, 100); ok {
		t.Fatal("p3 has no outputs")
	}
}

func TestFilterAndKindString(t *testing.T) {
	var tr Trace
	tr.Append(Event{Kind: StepKind})
	tr.Append(Event{Kind: SendKind})
	tr.Append(Event{Kind: StepKind})
	if got := len(tr.Filter(func(e Event) bool { return e.Kind == StepKind })); got != 2 {
		t.Fatalf("Filter=%d", got)
	}
	names := map[Kind]string{
		StepKind: "step", SendKind: "send", DecideKind: "decide",
		EmuKind: "emu", InvokeKind: "invoke", ReturnKind: "return", CrashKind: "crash",
	}
	for k, want := range names {
		if k.String() != want {
			t.Fatalf("%v.String()=%q", k, k.String())
		}
	}
}
