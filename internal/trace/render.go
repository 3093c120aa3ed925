package trace

import (
	"fmt"
	"strings"

	"repro/internal/dist"
)

// RenderOptions tunes Render.
type RenderOptions struct {
	// N is the system size (columns). Required.
	N int
	// From/To clip the rendered time window; To = 0 renders to the end.
	From, To dist.Time
	// MaxRows bounds output size (0 = 200).
	MaxRows int
}

// Render draws a run as an ASCII space-time diagram, one row per event:
//
//	t=12  p2  step  recv (1,101) from p1   fd={p1,p2}
//	t=13  p3  DECIDE 303
//
// It is a debugging and teaching aid; checkers never parse it. Nothing in
// the repository calls it yet: it is kept as the renderer for a failing
// run's replayed timeline.
func Render(tr *Trace, opt RenderOptions) string {
	if opt.MaxRows <= 0 {
		opt.MaxRows = 200
	}
	var b strings.Builder
	rows, more := 0, 0
	for _, e := range tr.Events() {
		if e.T < opt.From || (opt.To > 0 && e.T > opt.To) {
			continue
		}
		line := describe(e)
		if line == "" {
			continue
		}
		if rows == opt.MaxRows {
			more++
			continue
		}
		fmt.Fprintf(&b, "t=%-6d p%-3d %s\n", int64(e.T), int(e.P), line)
		rows++
	}
	if more > 0 {
		fmt.Fprintf(&b, "... (%d more events)\n", more)
	}
	return b.String()
}

func describe(e Event) string {
	switch e.Kind {
	case StepKind:
		if !e.Delivered {
			if e.FD == nil {
				return "step"
			}
			return fmt.Sprintf("step  fd=%v", e.FD)
		}
		s := fmt.Sprintf("step  recv %v from p%d", e.Payload, int(e.From))
		if e.FD != nil {
			s += fmt.Sprintf("  fd=%v", e.FD)
		}
		return s
	case SendKind:
		return fmt.Sprintf("send  %v to p%d", e.Payload, int(e.To))
	case DecideKind:
		return fmt.Sprintf("DECIDE %v", e.Payload)
	case EmuKind:
		return fmt.Sprintf("emu-output ← %v", e.Payload)
	case InvokeKind:
		return fmt.Sprintf("invoke %v", e.Payload)
	case ReturnKind:
		return fmt.Sprintf("return %v", e.Payload)
	case CrashKind:
		return "CRASH"
	case RecoverKind:
		return "RECOVER"
	case DropKind:
		return fmt.Sprintf("DROP  %v to p%d (loss)", e.Payload, int(e.To))
	default:
		return ""
	}
}
