package main

// The alloc probe: exact allocation counts of single calls into the ir,
// engine and incr layers, over the workload's own programs, on one P with
// the collector off. Every measured call starts from emptied sync.Pools.
// Go seeds every map's hash randomly, and a map's growth can cost one
// allocation more or less depending on the seed, so each count is the
// most frequent of probeReps measurements; that value repeats exactly
// from run to run.

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"

	"assignmentmotion/internal/cachestore"
	"assignmentmotion/internal/engine"
	"assignmentmotion/internal/ir"
)

const (
	probePrograms = 12
	probeEdits    = 2
	// probeEditTries bounds the edits tried per chain; the edit kinds
	// cycle with period three.
	probeEditTries = 6
	probeReps      = 9
)

// probeCounts holds one probe pass's per-item allocation counts.
type probeCounts struct {
	fingerprint, clone, hit, warm []uint64
}

// allocs counts the heap allocations of f. Parked goroutines are made
// available first, so a goroutine f starts reuses one instead of
// allocating it depending on history.
func allocs(f func()) uint64 {
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go wg.Done()
	}
	wg.Wait()
	runtime.GC()
	runtime.GC() // the second cycle empties the pools' victim caches
	old := debug.SetGCPercent(-1)
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	debug.SetGCPercent(old)
	return b.Mallocs - a.Mallocs
}

// mode is the most frequent count (the smallest among equals).
func mode(xs []uint64) uint64 {
	freq := map[uint64]int{}
	var best uint64
	for _, x := range xs {
		freq[x]++
		if f, bf := freq[x], freq[best]; f > bf || (f == bf && x < best) {
			best = x
		}
	}
	return best
}

// allocsMode is the most frequent allocation count of probeReps calls of f.
func allocsMode(f func()) uint64 {
	counts := make([]uint64, probeReps)
	for i := range counts {
		counts[i] = allocs(f)
	}
	return mode(counts)
}

// probeEngine returns an engine configured like the daemon's over a fresh
// store, and a cleanup.
func probeEngine(w *workload) (*engine.Engine, func(), error) {
	dir, err := os.MkdirTemp(scratchDir, "probe-")
	if err != nil {
		return nil, nil, err
	}
	st, err := cachestore.Open(dir, 0)
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	opts := engineOptions(serverConfig(dir, w.cacheSize))
	opts.Backend = st
	return engine.New(opts), func() { st.Close(); os.RemoveAll(dir) }, nil
}

// allocProbe runs one probe pass over the first distinct programs of
// reqs, plus (on edit-stream) the first one-assignment edits of client
// 0's chains.
func allocProbe(w *workload, reqs []*request) (probeCounts, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ctx := context.Background()
	var pc probeCounts

	var graphs []*ir.Graph
	seen := map[string]bool{}
	for _, q := range reqs {
		if len(graphs) == probePrograms {
			break
		}
		if seen[q.src] {
			continue
		}
		seen[q.src] = true
		g, err := parseSource(q.dialect, q.src)
		if err != nil {
			return pc, err
		}
		graphs = append(graphs, g)
	}
	eng, done, err := probeEngine(w)
	if err != nil {
		return pc, err
	}
	defer done()
	for _, g := range graphs {
		pc.fingerprint = append(pc.fingerprint, allocsMode(func() { g.Fingerprint() }))
		pc.clone = append(pc.clone, allocsMode(func() { g.Clone() }))
		if r := eng.Optimize(ctx, g); r.Err != nil {
			return pc, r.Err
		}
		var r engine.GraphResult
		n := allocsMode(func() { r = eng.Optimize(ctx, g) })
		if r.CacheTier != "memory" {
			return pc, fmt.Errorf("probe: repeated %s was served by tier %q, not memory", g.Name, r.CacheTier)
		}
		pc.hit = append(pc.hit, n)
	}

	if w.name != "edit-stream" {
		return pc, nil
	}
	for _, ch := range newChains(w.seed, 0)[:probeEdits] {
		// The region tier refuses some kinds of edit outright, so the
		// probe takes the chain's first edit that it replays.
		var counts []uint64
		for k := 0; k < probeEditTries && counts == nil; k++ {
			base, err := parseSource("fg", ch.text())
			if err != nil {
				return pc, err
			}
			ch.edit()
			edited, err := parseSource("fg", ch.text())
			if err != nil {
				return pc, err
			}
			if counts, err = replayAllocs(w, base, edited); err != nil {
				return pc, err
			}
		}
		if counts != nil {
			pc.warm = append(pc.warm, mode(counts))
		}
	}
	return pc, nil
}

// replayAllocs counts the allocations of optimizing edited, probeReps
// times, each on a fresh engine that has recorded base (a second call on
// one engine would be a memory hit). It returns nil when the region tier
// does not replay the edit.
func replayAllocs(w *workload, base, edited *ir.Graph) ([]uint64, error) {
	ctx := context.Background()
	counts := make([]uint64, probeReps)
	for i := range counts {
		eng, done, err := probeEngine(w)
		if err != nil {
			return nil, err
		}
		if r := eng.Optimize(ctx, base); r.Err != nil {
			done()
			return nil, r.Err
		}
		var r engine.GraphResult
		counts[i] = allocs(func() { r = eng.Optimize(ctx, edited) })
		done()
		if r.CacheTier != "region" {
			return nil, nil
		}
	}
	return counts, nil
}

func meanCount(xs []uint64) float64 {
	var s float64
	for _, x := range xs {
		s += float64(x)
	}
	return mean(s, len(xs))
}

// diff describes where two probe passes disagree ("" when they agree).
func (a probeCounts) diff(b probeCounts) string {
	var out []string
	cmp := func(name string, x, y []uint64) {
		if fmt.Sprint(x) != fmt.Sprint(y) {
			out = append(out, fmt.Sprintf("%s %v vs %v", name, x, y))
		}
	}
	cmp("fingerprint", a.fingerprint, b.fingerprint)
	cmp("clone", a.clone, b.clone)
	cmp("hit", a.hit, b.hit)
	cmp("warm", a.warm, b.warm)
	return strings.Join(out, "; ")
}
