package aht_test

import (
	"testing"

	"assignmentmotion/internal/aht"
	"assignmentmotion/internal/analysis"
	"assignmentmotion/internal/cfggen"
	"assignmentmotion/internal/core"
	"assignmentmotion/internal/ir"
)

// TestApplyWithFixpointAllocs is the allocation gate of the hoisting
// rewrite: on a graph already at its hoisting fixpoint, ApplyWith
// rebuilds every touched block in pooled scratch, finds it unchanged and
// keeps the block's own slice. So a round allocates nothing beyond its
// analysis, and no block's instruction slice is replaced.
func TestApplyWithFixpointAllocs(t *testing.T) {
	g := cfggen.Structured(3, cfggen.Config{Size: 40})
	g.SplitCriticalEdges()
	core.Initialize(g)
	s := analysis.NewSession()
	defer s.Close()
	for round := 0; aht.ApplyWith(g, s, nil); round++ {
		if round > 100 {
			t.Fatal("no hoisting fixpoint after 100 rounds")
		}
	}
	first := make([]*ir.Instr, len(g.Blocks))
	for i, b := range g.Blocks {
		first[i] = &b.Instrs[0]
	}

	analyze := testing.AllocsPerRun(10, func() {
		m := s.Arena().Mark()
		aht.AnalyzeWith(g, s)
		s.Arena().Release(m)
		g.Normalize() // ApplyWith ends with one; it invalidates the universe
	})
	apply := testing.AllocsPerRun(10, func() {
		if aht.ApplyWith(g, s, nil) {
			t.Fatal("ApplyWith changed a graph at its fixpoint")
		}
	})
	if apply > analyze {
		t.Errorf("ApplyWith at the fixpoint allocates %.0f, its analysis alone %.0f", apply, analyze)
	}
	for i, b := range g.Blocks {
		if &b.Instrs[0] != first[i] {
			t.Errorf("block %s: instruction slice replaced at the fixpoint", b.Name)
		}
	}
}
