package main

// The four traffic mixes. A workload is a pure function of (name, seed):
// the requests primed during set-up and one deterministic request stream
// per client.

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"assignmentmotion/internal/cfggen"
	"assignmentmotion/internal/corpus"
	"assignmentmotion/internal/ir"
	"assignmentmotion/internal/parse"
	"assignmentmotion/internal/server"
	"assignmentmotion/internal/typeinference"
)

// request is one HTTP request of a workload, plus what the oracle needs to
// check its answer.
type request struct {
	// key identifies the program (and, on /v1/run, the inputs): requests
	// with equal keys carry equal bodies, so the oracle checks a key's
	// answer once and compares later answers to it byte for byte.
	key     string
	path    string
	dialect string
	src     string
	inputs  map[string]int64 // /v1/run only
	body    []byte
}

const runMaxSteps = 1_000_000

func optimizeReq(key, name, dialect, src string) *request {
	body, _ := json.Marshal(server.OptimizeRequest{Name: name, Program: src, Dialect: dialect})
	return &request{key: key, path: "/v1/optimize", dialect: dialect, src: src, body: body}
}

func runReq(key, dialect, src string, inputs map[string]int64) *request {
	body, _ := json.Marshal(server.RunRequest{Program: src, Dialect: dialect, Inputs: inputs, MaxSteps: runMaxSteps})
	return &request{key: key, path: "/v1/run", dialect: dialect, src: src, inputs: inputs, body: body}
}

// workload is one traffic mix, fully generated from its seed.
type workload struct {
	name string
	seed int64
	// tailQ is the latency percentile reported as latency_tail_ms: the
	// highest of p99/p90 that leaves at least ten samples beyond it at
	// the benchmark's 18-second run length.
	tailQ float64
	// cacheSize is the server's in-memory tier bound (0 = amoptd default).
	cacheSize int
	// prime is sent sequentially during set-up, in order.
	prime []*request
	// stream returns client c's request generator.
	stream func(c int) func() *request
}

var workloadNames = []string{"cold-optimize", "warm-hits", "edit-stream", "run-exec"}

func newWorkload(name string, seed int64) (*workload, error) {
	var w *workload
	var err error
	switch name {
	case "cold-optimize":
		w = coldOptimize(seed)
	case "warm-hits":
		w = warmHits(seed)
	case "edit-stream":
		w = editStream(seed)
	case "run-exec":
		w, err = runExec(seed)
	default:
		err = fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	if err != nil {
		return nil, err
	}
	w.seed = seed
	return w, nil
}

// coldPregen is how many requests each cold-optimize stream generates as
// soon as it is made (during set-up); later ones are generated on demand.
const coldPregen = 600

// pregenerated returns a stream that first serves n requests generated
// now (during set-up), then continues generating lazily.
func pregenerated(n int, next func() *request) func() *request {
	buf := make([]*request, n)
	for i := range buf {
		buf[i] = next()
	}
	return func() *request {
		if len(buf) > 0 {
			q := buf[0]
			buf = buf[1:]
			return q
		}
		return next()
	}
}

// coldOptimize: every request is a never-seen cfggen program, so every
// request misses all tiers and runs the passes.
func coldOptimize(seed int64) *workload {
	return &workload{
		name:  "cold-optimize",
		tailQ: 0.9,
		stream: func(c int) func() *request {
			i := 0
			return pregenerated(coldPregen, func() *request {
				r := rng(seed, 1, int64(c), int64(i))
				name := fmt.Sprintf("cold_%d_%d", c, i)
				f := stratum(i)
				var src string
				if i%10 < 7 {
					src = genFG(r, name, true, sized(f, 8, 80))
				} else {
					src = genFG(r, name, false, sized(f, 8, 40))
				}
				i++
				return optimizeReq(name, name, "fg", src)
			})
		},
	}
}

// warmWorkingSet is the number of distinct warm-hits programs: twice the
// memory tier, so the Zipf head hits memory and the tail hits disk.
const (
	warmCacheSize  = 256
	warmWorkingSet = 2 * warmCacheSize
	warmZipfS      = 1.1
	// warmZipfV flattens the head: the top program draws about 2% of the
	// traffic and the top ten about 14%, so no single program's cost
	// sets a run's figures. About 17% of requests fall on ranks beyond
	// the memory tier; with LRU churn about a quarter are disk hits.
	warmZipfV = 20
)

// warmHits: a Zipf-skewed closed-loop mix over a primed working set of
// fg, nested, prog and fun programs.
func warmHits(seed int64) *workload {
	reqs := make([]*request, warmWorkingSet)
	for k := range reqs {
		r := rng(seed, 2, int64(k))
		name := fmt.Sprintf("warm_%d", k)
		f := stratum(k / 5)
		switch k % 5 {
		case 0:
			reqs[k] = optimizeReq(name, name, "fg", genFG(r, name, true, sized(f, 8, 24)))
		case 1:
			reqs[k] = optimizeReq(name, name, "fg", genFG(r, name, false, sized(f, 8, 16)))
		case 2:
			reqs[k] = optimizeReq(name, name, "nested", genNested(r, name, f))
		case 3:
			reqs[k] = optimizeReq(name, name, "prog", genProg(r, name, f))
		default:
			reqs[k] = optimizeReq(name, name, "fun", genFun(r, name, f))
		}
	}
	// Prime least popular first, so the popular head ends up in memory.
	prime := make([]*request, 0, len(reqs))
	for k := len(reqs) - 1; k >= 0; k-- {
		prime = append(prime, reqs[k])
	}
	return &workload{
		name:      "warm-hits",
		tailQ:     0.99,
		cacheSize: warmCacheSize,
		prime:     prime,
		stream: func(c int) func() *request {
			z := rand.NewZipf(rng(seed, 3, int64(c)), warmZipfS, warmZipfV, warmWorkingSet-1)
			return func() *request { return reqs[z.Uint64()] }
		},
	}
}

// Edit-stream chains: each client owns editDiamonds diamond chains of
// about editDiamondBlocks blocks, plus one cfggen.Structured chain of Size
// editStructuredSize (about 850 blocks). Two clients then own eight
// chains, the length of the incremental tier's heads ring. Equal diamond
// sizes keep the cold (refused) edits in one latency band, so the median
// and tail fall inside a band rather than between bands.
const (
	editDiamonds       = 3
	editDiamondBlocks  = 1200
	editStructuredSize = 300
)

// chain is one client-owned sequence of program versions, each one
// seeded one-assignment edit away from the previous version.
type chain struct {
	name    string
	r       *rand.Rand
	variant []uint8   // diamond chains
	phase   int       // diamond chains: where the cycle of edit kinds starts
	g       *ir.Graph // structured chains
	version int
}

func (ch *chain) text() string {
	name := fmt.Sprintf("%s_v%d", ch.name, ch.version)
	if ch.variant != nil {
		return diamondChain(name, ch.variant)
	}
	return fgText(ch.g, name)
}

func (ch *chain) edit() {
	ch.version++
	if ch.variant != nil {
		// The seed draws the diamond; the new variant cycles through the
		// three others, so every run has the same share of each kind of
		// edit (the region tier replays some kinds far more often than
		// others).
		j := ch.r.Intn(len(ch.variant))
		ch.variant[j] = uint8((int(ch.variant[j]) + 1 + (ch.version+ch.phase)%3) % 4)
		return
	}
	editAssign(ch.r, ch.g)
}

func newChains(seed int64, c int) []*chain {
	var chains []*chain
	for j := 0; j <= editDiamonds; j++ {
		r := rng(seed, 5, int64(c), int64(j))
		ch := &chain{name: fmt.Sprintf("edit_%d_%d", c, j), r: r}
		if j < editDiamonds {
			blocks := editDiamondBlocks * (98 + r.Intn(5)) / 100
			ch.variant = make([]uint8, (blocks-2)/4)
			ch.phase = r.Intn(3)
		} else {
			// The base program is fixed per client, like the diamond
			// chains' shape; the seed draws the edit sequence.
			ch.g = cfggen.Structured(int64(1000+c), cfggen.Config{Size: editStructuredSize})
		}
		chains = append(chains, ch)
	}
	return chains
}

// editStream: each client round-robins over its own chains, sending each
// chain's next version. Refused region replays stay in the stream.
func editStream(seed int64) *workload {
	w := &workload{name: "edit-stream", tailQ: 0.9}
	for c := 0; c < clients; c++ {
		for _, ch := range newChains(seed, c) {
			w.prime = append(w.prime, optimizeReq(ch.name+"_v0", ch.name, "fg", ch.text()))
		}
	}
	w.stream = func(c int) func() *request {
		chains := newChains(seed, c)
		i := 0
		return func() *request {
			ch := chains[i%len(chains)]
			i++
			ch.edit()
			key := fmt.Sprintf("%s_v%d", ch.name, ch.version)
			return optimizeReq(key, ch.name, "fg", ch.text())
		}
	}
	return w
}

// Run-exec pool: generated fun programs with input-driven trip counts,
// plus the fun and fg corpus.
const (
	runGenerated    = 24
	runInputsPerGen = 6
	runMinSteps     = 1.5e4
	runMaxStepsGoal = 8e4
)

// runExec: POST /v1/run over a fixed pool of (program, inputs) pairs whose
// optimizations are primed during set-up.
func runExec(seed int64) (*workload, error) {
	w := &workload{name: "run-exec", tailQ: 0.99}
	var pool []*request
	addCorpus := func(name, dialect, src string, g *ir.Graph, k int) {
		w.prime = append(w.prime, optimizeReq(name, name, dialect, src))
		for j, env := range inputsFor(rng(seed, 6, int64(len(w.prime))), g, k) {
			in := make(map[string]int64, len(env))
			for v, x := range env {
				in[string(v)] = x
			}
			pool = append(pool, runReq(fmt.Sprintf("%s#%d", name, j), dialect, src, in))
		}
	}
	for k := 0; k < runGenerated; k++ {
		r := rng(seed, 7, int64(k))
		name := fmt.Sprintf("run_%d", k)
		src := genFun(r, name, stratum(k))
		perTrip, err := funStepsPerTrip(src)
		if err != nil {
			return nil, fmt.Errorf("generated program %s: %v", name, err)
		}
		w.prime = append(w.prime, optimizeReq(name, name, "fun", src))
		for j := 0; j < runInputsPerGen; j++ {
			f := (float64(j) + stratum(k)) / runInputsPerGen
			steps := runMinSteps * math.Pow(runMaxStepsGoal/runMinSteps, f)
			in := map[string]int64{
				"x": int64(r.Intn(41) - 20),
				"y": int64(r.Intn(41) - 20),
				"n": int64(steps / perTrip),
			}
			pool = append(pool, runReq(fmt.Sprintf("%s#%d", name, j), "fun", src, in))
		}
	}
	for _, name := range corpus.FunNames() {
		src := corpus.FunSource(name)
		g, _, err := typeinference.Compile(src)
		if err != nil {
			return nil, fmt.Errorf("corpus %s: %v", name, err)
		}
		addCorpus(name, "fun", src, g, 4)
	}
	for _, name := range corpus.Names() {
		src := corpus.Source(name)
		g, err := parse.Parse(src)
		if err != nil {
			return nil, fmt.Errorf("corpus %s: %v", name, err)
		}
		addCorpus(name, "fg", src, g, 2)
	}
	w.stream = func(c int) func() *request {
		r := rng(seed, 8, int64(c))
		return func() *request { return pool[r.Intn(len(pool))] }
	}
	return w, nil
}
