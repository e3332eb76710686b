package incr_test

import (
	"fmt"
	"strings"
	"testing"

	"assignmentmotion/internal/analysis"
	"assignmentmotion/internal/copyprop"
	"assignmentmotion/internal/core"
	"assignmentmotion/internal/incr"
	"assignmentmotion/internal/pass"
	"assignmentmotion/internal/printer"
)

// swapProg builds a chain of nd branch diamonds whose arms compute p+q
// and p-q and whose joins bump p, so nothing computed in one diamond is
// available in the next and an edit stays inside its region. The first
// diamond branches on u+v, every later one on p-q. swap >= 0 exchanges
// that diamond's arms: in the first diamond this swaps the creation
// order of the p+q and p-q temporaries, so a warm replay must rename
// the temporaries — conditions included — in every stitched region.
func swapProg(nd, swap int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "graph swaps {\n  entry s0\n  exit done\n")
	fmt.Fprintf(&b, "  block s0 {\n    pre := u + v\n    goto d0\n  }\n")
	for i := 0; i < nd; i++ {
		cond := "p - q"
		if i == 0 {
			cond = "u + v"
		}
		armA := fmt.Sprintf("x%d := p + q\n    y%d := p + q", i, i)
		armB := fmt.Sprintf("z%d := p - q", i)
		if i == swap {
			armA, armB = armB, armA
		}
		next := fmt.Sprintf("d%d", i+1)
		if i == nd-1 {
			next = "done"
		}
		fmt.Fprintf(&b, "  block d%d {\n    if %s < 7 then a%d else b%d\n  }\n", i, cond, i, i)
		fmt.Fprintf(&b, "  block a%d {\n    %s\n    goto j%d\n  }\n", i, armA, i)
		fmt.Fprintf(&b, "  block b%d {\n    %s\n    goto j%d\n  }\n", i, armB, i)
		fmt.Fprintf(&b, "  block j%d {\n    p := p + 1\n    goto %s\n  }\n", i, next)
	}
	fmt.Fprintf(&b, "  block done { out(u) }\n}\n")
	return b.String()
}

// TestSharedCondImmutable pins the rule behind the shared *ir.Cond:
// Graph.Clone copies the pointer, so every pass must build a new
// condition rather than write through one. A clone goes through
// Initialize, AM, flush and copy propagation; a region-tier replay then
// renames the temporaries of stitched conditions. Neither the original
// graph, nor the edited source, nor the recording the replay stitched
// from may change. CI runs the incr package under -race.
func TestSharedCondImmutable(t *testing.T) {
	const nd = 30
	orig := mustParse(t, swapProg(nd, -1))
	origText := printer.String(orig)

	c := orig.Clone()
	rec := incr.NewRecorder(c.Fingerprint().String(), "test-cfg")
	s := analysis.NewSession()
	defer s.Close()
	var res core.Result
	pl := pass.New(core.PhasesObserved(&res, rec.Hooks(), rec.FlushObserver())...)
	if _, err := pl.RunWith(nil, c, s); err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	man := rec.Manifest()
	if man == nil {
		t.Fatal("recorder produced no manifest")
	}
	finalText := printer.String(incr.FinalGraph(man))
	copyprop.Run(c)

	edited := mustParse(t, swapProg(nd, 0))
	editedText := printer.String(edited)
	warm, ok := incr.Replay(edited, man)
	if !ok {
		t.Fatal("warm replay did not certify the arm swap")
	}
	cold, _ := coldRun(t, edited, nil)
	warmText := printer.String(warm.Graph)
	if warmText != printer.String(cold) {
		t.Fatalf("warm result differs from cold:\nwarm:\n%s\ncold:\n%s", warmText, printer.String(cold))
	}
	if warm.RegionsReused == 0 {
		t.Fatal("no region was stitched")
	}
	// The stitched conditions were renamed: p-q is h3 in the recording
	// and h2 live.
	if !strings.Contains(finalText, "if h3 < 7") || !strings.Contains(warmText, "if h2 < 7") || strings.Contains(warmText, "if h3 < 7") {
		t.Fatalf("expected the replay to rename the p-q temporary in conditions:\nrecorded:\n%s\nwarm:\n%s", finalText, warmText)
	}
	copyprop.Run(warm.Graph)

	if got := printer.String(orig); got != origText {
		t.Errorf("optimizing a clone changed the original:\n%s", got)
	}
	if got := printer.String(edited); got != editedText {
		t.Errorf("replay changed its source:\n%s", got)
	}
	if got := printer.String(incr.FinalGraph(man)); got != finalText {
		t.Errorf("replay or copyprop changed the recorded final graph:\n%s", got)
	}
}
