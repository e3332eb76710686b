package printer

import (
	"strings"
	"testing"

	"assignmentmotion/internal/cfggen"
	"assignmentmotion/internal/ir"
	"assignmentmotion/internal/parse"
)

const running = `
graph running {
  entry b1
  exit b4
  block b1 {
    y := c + d
    goto b2
  }
  block b2 {
    if x + z > y + i then b3 else b4
  }
  block b3 {
    y := c + d
    x := y + z
    i := i + x
    goto b2
  }
  block b4 {
    x := y + z
    x := c + d
    out(i, x, y)
  }
}
`

func TestRoundTrip(t *testing.T) {
	g := parse.MustParse(running)
	text := String(g)
	g2, err := parse.ParseWith(text, parse.Options{AllowTemps: true})
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, text)
	}
	if g.Encode() != g2.Encode() {
		t.Errorf("round trip changed graph:\n--- original\n%s\n--- reparsed\n%s", g.Encode(), g2.Encode())
	}
}

func TestRoundTripWithTempsAndSkips(t *testing.T) {
	src := `
graph g {
  entry a
  exit c
  block a {
    h1 := x + y
    z := h1
    if h1 < 10 then b else c
  }
  block b {
    goto c
  }
  block c { out(z) }
}
`
	g, err := parse.ParseWith(src, parse.Options{AllowTemps: true})
	if err != nil {
		t.Fatal(err)
	}
	text := String(g)
	g2, err := parse.ParseWith(text, parse.Options{AllowTemps: true})
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, text)
	}
	if g.Encode() != g2.Encode() {
		t.Errorf("round trip changed graph:\n%s\nvs\n%s", g.Encode(), g2.Encode())
	}
	if !g2.IsTemp("h1") {
		t.Error("temp registry lost in round trip")
	}
}

func TestRoundTripAfterSplit(t *testing.T) {
	g := parse.MustParse(running)
	g.SplitCriticalEdges()
	text := String(g)
	g2, err := parse.ParseWith(text, parse.Options{AllowTemps: true})
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, text)
	}
	if g.Encode() != g2.Encode() {
		t.Error("round trip changed split graph")
	}
}

func TestPrintShape(t *testing.T) {
	g := parse.MustParse(running)
	text := String(g)
	for _, want := range []string{
		"graph running {",
		"entry b1",
		"exit b4",
		"y := c + d",
		"if x + z > y + i then b3 else b4",
		"out(i, x, y)",
		"goto b2",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
}

func TestDot(t *testing.T) {
	g := parse.MustParse(running)
	dot := Dot(g)
	for _, want := range []string{
		`digraph "running"`,
		`"b2" -> "b3" [label="T"]`,
		`"b2" -> "b4" [label="F"]`,
		`"b1" -> "b2";`,
		"x := y+z",
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("dot missing %q:\n%s", want, dot)
		}
	}
}

func TestPrintLoneSkipBlock(t *testing.T) {
	b := ir.NewBuilder("s")
	b.Block("a")
	b.Block("b").OutVars()
	b.Edge("a", "b")
	g := b.MustFinish("a", "b")
	text := String(g)
	if !strings.Contains(text, "skip") {
		t.Errorf("lone skip not printed:\n%s", text)
	}
	g2, err := parse.ParseWith(text, parse.Options{AllowTemps: true})
	if err != nil {
		t.Fatal(err)
	}
	if g.Encode() != g2.Encode() {
		t.Error("skip round trip failed")
	}
}

// TestStringAllocsFlat is the printer's allocation gate: rendering goes
// through a pooled buffer, so String allocates only its result, however
// large the graph.
func TestStringAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under -race")
	}
	allocs := func(g *ir.Graph) float64 {
		return testing.AllocsPerRun(20, func() { String(g) })
	}
	small := allocs(cfggen.Structured(1, cfggen.Config{Size: 8}))
	large := allocs(cfggen.Structured(1, cfggen.Config{Size: 300}))
	if small != 1 || large != 1 {
		t.Errorf("String allocates %.0f on a small graph and %.0f on a large one, want 1 each", small, large)
	}
}
