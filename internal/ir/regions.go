package ir

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"strconv"

	"assignmentmotion/internal/dataflow"
)

// DefaultRegionTarget is the block-count ceiling one region aims for. It
// is part of the fingerprint definition (Fingerprint composes from
// per-region digests over this decomposition), so changing it changes
// every fingerprint and invalidates persisted caches — bump the
// cachestore/persist versions alongside it.
const DefaultRegionTarget = 32

// RegionSet is a deterministic partition of a graph's blocks into
// contiguous single-entry-biased regions over the SCC condensation. The
// decomposition depends only on the graph's structure in canonical order
// (entry-first DFS), so structurally equal graphs — regardless of block
// naming or declaration order — decompose identically, and an edit that
// touches one block's instructions dirties exactly one region.
type RegionSet struct {
	// Regions lists each region's member blocks as NodeIDs (== slice
	// indices into Graph.Blocks), ordered by canonical rank.
	Regions [][]NodeID
	// Of maps a block's NodeID to its region index.
	Of []int
}

// Len returns the number of regions.
func (rs *RegionSet) Len() int { return len(rs.Regions) }

// Regionize partitions g's blocks into regions of at most target blocks
// (DefaultRegionTarget when target <= 0). Strongly connected components
// are never split: loops optimize as a unit. Components are grouped
// greedily in topological order of the condensation, extending the
// current region while it stays within target and keeps a single entry
// (one block with predecessors outside the region, or the graph entry);
// a lone multi-entry component still forms its own region.
func Regionize(g *Graph, target int) *RegionSet {
	order, _ := g.canonicalOrder()
	return regionize(g, target, order)
}

// regionize is Regionize over a precomputed canonical order.
func regionize(g *Graph, target int, order []*Block) *RegionSet {
	if target <= 0 {
		target = DefaultRegionTarget
	}
	n := len(g.Blocks)
	rs := &RegionSet{Of: make([]int, n)}
	if n == 0 {
		return rs
	}

	// Canonical-index adjacency: cpos[id] is the canonical position of
	// block id, csuccs positions mirror successor order.
	cpos := make([]int, n)
	for i, b := range order {
		cpos[b.ID] = i
	}
	csuccs := make([][]int, n)
	for i, b := range order {
		for _, s := range b.Succs {
			csuccs[i] = append(csuccs[i], cpos[s])
		}
	}
	next := func(i int) []int { return csuccs[i] }
	_, comps := dataflow.Condense(n, next)

	// Predecessor counts in canonical space, for the single-entry check.
	cpreds := make([][]int, n)
	for i, ss := range csuccs {
		for _, s := range ss {
			cpreds[s] = append(cpreds[s], i)
		}
	}
	entryPos := cpos[g.Entry]

	inRegion := make([]bool, n)
	entries := func(members []int) int {
		count := 0
		for _, m := range members {
			if m == entryPos {
				count++
				continue
			}
			for _, p := range cpreds[m] {
				if !inRegion[p] {
					count++
					break
				}
			}
		}
		return count
	}

	var cur []int
	flush := func() {
		if len(cur) == 0 {
			return
		}
		region := make([]NodeID, len(cur))
		for i, m := range cur {
			region[i] = order[m].ID
			inRegion[m] = false
		}
		for _, id := range region {
			rs.Of[id] = len(rs.Regions)
		}
		rs.Regions = append(rs.Regions, region)
		cur = cur[:0]
	}

	// Tarjan emits reverse topological order; walk it forward.
	for c := len(comps) - 1; c >= 0; c-- {
		comp := comps[c]
		// Keep members in canonical order inside the region.
		sortInts(comp)
		if len(cur) > 0 {
			for _, m := range comp {
				inRegion[m] = true
			}
			merged := append(cur, comp...)
			if len(merged) > target || entries(merged) > 1 {
				for _, m := range comp {
					inRegion[m] = false
				}
				flush()
			} else {
				cur = merged
				continue
			}
		}
		cur = append(cur, comp...)
		for _, m := range comp {
			inRegion[m] = true
		}
	}
	flush()
	return rs
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// canonicalOrder computes the deterministic entry-first DFS traversal
// that canonical encoding and fingerprinting use: successor order
// preserved (it selects branch arms), unreachable blocks appended in
// declaration order. rank[id] is the 1-based canonical position.
func (g *Graph) canonicalOrder() (order []*Block, rank []int) {
	rank = make([]int, len(g.Blocks))
	order = make([]*Block, 0, len(g.Blocks))
	visit := func(id NodeID) {
		stack := []NodeID{id}
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if rank[n] != 0 {
				continue
			}
			order = append(order, g.Block(n))
			rank[n] = len(order)
			succs := g.Block(n).Succs
			for i := len(succs) - 1; i >= 0; i-- {
				if rank[succs[i]] == 0 {
					stack = append(stack, succs[i])
				}
			}
		}
	}
	if len(g.Blocks) > 0 {
		visit(g.Entry)
	}
	for _, b := range g.Blocks {
		if rank[b.ID] == 0 {
			visit(b.ID)
		}
	}
	return order, rank
}

// RegionDigests returns one hex digest per region of the canonical
// decomposition: the region's blocks serialized exactly as Encode would
// (appendBlockCanon) under canonical rank names, in canonical order.
// Fingerprint composes from these, so the concatenation of region
// serializations carries the same information as the whole-graph
// traversal did before the split.
func (g *Graph) RegionDigests() (*RegionSet, []string) {
	order, rank := g.canonicalOrder()
	rs := regionize(g, 0, order)
	sums := g.regionSums(sha256.New(), rs, rank)
	digests := make([]string, rs.Len())
	for i := range digests {
		digests[i] = hex.EncodeToString(sums[i*sha256.Size : (i+1)*sha256.Size])
	}
	return rs, digests
}

// regionSums hashes each region's canonical serialization into h, which
// it resets per region, writing the hash once per block from one reused
// buffer. It returns the raw digests concatenated, sha256.Size bytes per
// region.
func (g *Graph) regionSums(h hash.Hash, rs *RegionSet, rank []int) []byte {
	name := func(dst []byte, id NodeID) []byte {
		return strconv.AppendInt(append(dst, 'n'), int64(rank[id]), 10)
	}
	sums := make([]byte, 0, rs.Len()*sha256.Size)
	var buf []byte
	for _, region := range rs.Regions {
		h.Reset()
		for _, id := range region {
			buf = appendBlockCanon(buf[:0], g.Block(id), name)
			h.Write(buf)
		}
		sums = h.Sum(sums)
	}
	return sums
}
