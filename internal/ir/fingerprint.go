package ir

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Fingerprint is a content address of a graph: a collision-resistant hash
// of the graph's canonical form. Two graphs share a fingerprint exactly
// when they are identical up to block naming and block declaration order
// (variables, instructions, branch targets, and temporary bindings all
// participate). The batch engine keys its result cache on fingerprints.
type Fingerprint [sha256.Size]byte

// String renders the fingerprint as hex.
func (f Fingerprint) String() string { return hex.EncodeToString(f[:]) }

// Short returns the first 12 hex digits, for logs and reports.
func (f Fingerprint) Short() string { return f.String()[:12] }

// Fingerprint computes the graph's content address. The canonical form
// renames blocks to their rank in a deterministic depth-first traversal
// from the entry node (successor order preserved, since it selects branch
// arms), appends unreachable blocks in declaration order, and records
// every instruction, edge, and occurring temporary binding h_ε ↦ ε.
// Graph and block names are deliberately excluded, so structurally equal
// programs parsed from differently named sources coincide.
//
// The digest composes from per-region digests over the deterministic
// region decomposition (see Regionize/RegionDigests): each region hashes
// its own canonical block serialization, and the whole-graph fingerprint
// hashes the header plus the region digest sequence. Regions partition
// the canonical order, so the composition carries exactly the
// information the flat traversal did, while exposing the per-region
// digests the incremental artifact store diffs against.
func (g *Graph) Fingerprint() Fingerprint {
	order, rank := g.canonicalOrder()
	rs := regionize(g, 0, order)
	// One SHA-256 state serves the region digests and then the whole.
	h := sha256.New()
	sums := g.regionSums(h, rs, rank)

	h.Reset()
	buf := append(make([]byte, 0, 128), "entry "...)
	buf = strconv.AppendInt(buf, int64(rank[g.Entry]), 10)
	buf = append(buf, " exit "...)
	buf = strconv.AppendInt(buf, int64(rank[g.Exit]), 10)
	buf = append(buf, '\n')
	h.Write(buf)
	for i := 0; i < rs.Len(); i++ {
		buf = strconv.AppendInt(append(buf[:0], "region "...), int64(i), 10)
		buf = hex.AppendEncode(append(buf, ' '), sums[i*sha256.Size:(i+1)*sha256.Size])
		buf = append(buf, '\n')
		h.Write(buf)
	}
	// Temporary bindings are semantic state (IsTemp / TempExpr steer the
	// phases), so occurring temporaries contribute their bound patterns.
	for _, v := range g.occurringTemps(order) {
		e, _ := g.TempExpr(v)
		buf = append(append(buf[:0], "temp "...), v...)
		buf = e.AppendKey(append(buf, '='))
		buf = append(buf, '\n')
		h.Write(buf)
	}

	var f Fingerprint
	h.Sum(f[:0])
	return f
}

// occurringTemps returns the registered temporaries occurring in the
// blocks of order, sorted by name.
func (g *Graph) occurringTemps(order []*Block) []Var {
	if len(g.exprByTemp) == 0 {
		return nil
	}
	var temps []Var
	seen := map[Var]bool{}
	note := func(v Var) {
		if !seen[v] && g.IsTemp(v) {
			seen[v] = true
			temps = append(temps, v)
		}
	}
	var uses []Var
	for _, b := range order {
		for i := range b.Instrs {
			uses = b.Instrs[i].Uses(uses[:0])
			for _, v := range uses {
				note(v)
			}
			if v, ok := b.Instrs[i].Defs(); ok {
				note(v)
			}
		}
	}
	sort.Slice(temps, func(i, j int) bool { return temps[i] < temps[j] })
	return temps
}

// FingerprintString is a debugging aid: the hex fingerprint plus a terse
// shape summary ("12ab34cd56ef (7 blocks, 23 instrs)").
func (g *Graph) FingerprintString() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s (%d blocks, %d instrs)", g.Fingerprint().Short(), len(g.Blocks), g.InstrCount())
	return sb.String()
}
