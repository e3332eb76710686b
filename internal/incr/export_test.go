package incr

import "assignmentmotion/internal/ir"

// FinalGraph exposes a manifest's memoized final graph to the external
// tests: stitching reads its instructions, so they must stay intact.
func FinalGraph(m *Manifest) *ir.Graph { return m.finalGraph() }
