package main

// The traced run: the same seeded requests replayed in process on one
// goroutine through the public functions the handler calls, with a span
// around each call into a layer. Spans stay in memory until the run ends.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"assignmentmotion/internal/bytecode"
	"assignmentmotion/internal/cachestore"
	"assignmentmotion/internal/engine"
	"assignmentmotion/internal/interp"
	"assignmentmotion/internal/ir"
	"assignmentmotion/internal/pass"
	"assignmentmotion/internal/printer"
	"assignmentmotion/internal/server"
)

// span is one timed call into a layer. Spans of one request share Req;
// Parent is the index of the enclosing span (-1 for roots and for the
// side probes, which sit outside the request).
type span struct {
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// N is a size attached to the span: bytes parsed or stored, steps
	// executed, or heads read.
	N int `json:"n,omitempty"`
	// Key names the request's program on its root span.
	Key string `json:"key,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

type tracer struct {
	t0    time.Time
	spans []span
	req   int
	// parent is the span new spans nest under.
	parent int
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) add(name string, start, end int64, n int) int {
	t.spans = append(t.spans, span{Req: t.req, Name: name, Parent: t.parent, Start: start, End: end, N: n})
	return len(t.spans) - 1
}

// open starts a span that later spans nest under until close.
func (t *tracer) open(name string) int {
	id := t.add(name, t.now(), 0, 0)
	t.parent = id
	return id
}

func (t *tracer) close(id int) {
	t.spans[id].End = t.now()
	t.parent = t.spans[id].Parent
}

// tracedStore times the engine's persistent backend, telling result
// entries apart from the incremental tier's manifests and heads rings.
type tracedStore struct {
	st *cachestore.Store
	t  *tracer
	// recording is set between a manifest Put and the heads Put that
	// ends incr's Record, so Record's own heads read is not counted as a
	// replay attempt.
	recording bool
}

func (s *tracedStore) Get(key string) ([]byte, bool) {
	start := s.t.now()
	data, ok := s.st.Get(key)
	end := s.t.now()
	switch {
	case strings.HasPrefix(key, "incr-heads|"):
		name := "incr.heads_get"
		if s.recording {
			name = "incr.record_heads_get"
		}
		var heads []string
		json.Unmarshal(data, &heads)
		s.t.add(name, start, end, len(heads))
	case strings.HasPrefix(key, "incr|"):
		s.t.add("incr.manifest_get", start, end, len(data))
	default:
		s.t.add("cachestore.get", start, end, len(data))
	}
	return data, ok
}

func (s *tracedStore) Put(key string, data []byte) error {
	start := s.t.now()
	err := s.st.Put(key, data)
	end := s.t.now()
	switch {
	case strings.HasPrefix(key, "incr-heads|"):
		s.t.add("incr.heads_put", start, end, len(data))
		s.recording = false
	case strings.HasPrefix(key, "incr|"):
		s.t.add("incr.manifest_put", start, end, len(data))
		s.recording = true
	default:
		s.t.add("cachestore.put", start, end, len(data))
	}
	return err
}

// tracedRun replays requests through an engine configured like the
// daemon's, on one goroutine.
type tracedRun struct {
	t     *tracer
	dir   string
	store *tracedStore
	eng   *engine.Engine
	// obs is what the engine's hooks reported for the current request.
	obs observed
}

// observed is one request's engine-side report: the final GraphResult
// and the work of its passes.
type observed struct {
	res                      engine.GraphResult
	amRounds, solves, visits int
}

// engineOptions mirrors what server.engineFor builds for the default
// pipeline under serverConfig. Workers defaults to GOMAXPROCS, so the
// server's SolverWorkers (GOMAXPROCS / Workers) is 1.
func engineOptions(cfg server.Config) engine.Options {
	return engine.Options{
		Parallelism:   1,
		SolverWorkers: 1,
		CacheSize:     cfg.CacheSize,
		Recovery:      pass.Fail,
		Incremental:   cfg.Incremental,
	}
}

func newTracedRun(w *workload) (*tracedRun, error) {
	dir, err := os.MkdirTemp(scratchDir, "traced-")
	if err != nil {
		return nil, err
	}
	st, err := cachestore.Open(dir, 0)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	tr := &tracedRun{t: &tracer{t0: time.Now(), parent: -1}, dir: dir}
	tr.store = &tracedStore{st: st, t: tr.t}
	opts := engineOptions(serverConfig(dir, w.cacheSize))
	opts.Backend = tr.store
	opts.Hook = func(_ string, ev pass.Event) {
		end := tr.t.now()
		tr.t.add("pass."+ev.Pass, end-int64(ev.Wall), end, ev.Dataflow.Visits)
		if ev.Pass == "am" {
			tr.obs.amRounds += ev.Stats.Iterations
		}
		tr.obs.solves += ev.Dataflow.Solves
		tr.obs.visits += ev.Dataflow.Visits
	}
	opts.OutcomeHook = func(r engine.GraphResult) { tr.obs.res = r }
	tr.eng = engine.New(opts)
	return tr, nil
}

func (tr *tracedRun) close() {
	tr.store.st.Close()
	os.RemoveAll(tr.dir)
}

// answer is what the traced replay produced for one request, to compare
// with the live daemon's answer.
type answer struct {
	program string
	trace   []int64
	err     error
}

// do replays one request: decode, parse, optimize, print, execute (on
// /v1/run), encode — the handler's order — then times the side probes.
func (tr *tracedRun) do(q *request) answer {
	t := tr.t
	t.req++
	tr.obs = observed{}
	root := t.open("request")
	t.spans[root].Key = q.key
	defer func() {
		if t.parent == root {
			t.close(root)
		}
	}()

	start := t.now()
	var oreq server.OptimizeRequest
	var rreq server.RunRequest
	var err error
	if q.path == "/v1/run" {
		err = json.NewDecoder(bytes.NewReader(q.body)).Decode(&rreq)
		oreq = server.OptimizeRequest{Name: rreq.Name, Program: rreq.Program, Dialect: rreq.Dialect}
	} else {
		err = json.NewDecoder(bytes.NewReader(q.body)).Decode(&oreq)
	}
	t.add("server.decode", start, t.now(), len(q.body))
	if err != nil {
		return answer{err: err}
	}

	start = t.now()
	g, err := parseSource(oreq.Dialect, oreq.Program)
	name := "parse.parse"
	if oreq.Dialect == "fun" {
		name = "typeinference.compile"
	}
	t.add(name, start, t.now(), len(oreq.Program))
	if err != nil {
		return answer{err: err}
	}
	if oreq.Name != "" {
		g.Name = oreq.Name
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	opt := t.open("engine.optimize")
	res := tr.eng.Optimize(ctx, g)
	t.close(opt)
	cancel()
	if res.Err != nil {
		return answer{err: res.Err}
	}

	var out answer
	var body any
	if q.path == "/v1/run" {
		init := make(map[ir.Var]int64, len(rreq.Inputs))
		for k, x := range rreq.Inputs {
			init[ir.Var(k)] = x
		}
		opts := interp.Options{TrapOnDivZero: rreq.TrapDivZero}
		before, err := tr.execute(g, init, rreq.MaxSteps, opts)
		if err != nil {
			return answer{err: err}
		}
		after, err := tr.execute(res.Graph, init, rreq.MaxSteps, opts)
		if err != nil {
			return answer{err: err}
		}
		start = t.now()
		printed := printer.String(res.Graph)
		t.add("printer.print", start, t.now(), len(printed))
		resp := server.RunResponse{
			Name: g.Name, Outcome: "ran", Trace: after.Trace, MaxSteps: rreq.MaxSteps,
			Optimized: printed, Fingerprint: res.Fingerprint, CacheHit: res.CacheHit,
			TraceMatch: interp.TraceEqual(before, after),
		}
		resp.Before.ExprEvals, resp.After.ExprEvals = before.Counts.ExprEvals, after.Counts.ExprEvals
		out.trace, body = after.Trace, resp
	} else {
		start = t.now()
		printed := printer.String(res.Graph)
		t.add("printer.print", start, t.now(), len(printed))
		out.program = printed
		body = server.OptimizeResponse{
			Name: g.Name, Outcome: string(res.Outcome), Program: printed,
			Fingerprint: res.Fingerprint, CacheHit: res.CacheHit, CacheTier: res.CacheTier,
			RegionsTotal: res.RegionsTotal, RegionsReused: res.RegionsReused,
			RegionsRecomputed: res.RegionsRecomputed, AMIterations: res.Result.AM.Iterations,
			Wall: res.Timings.Total.String(), Passes: res.Passes,
		}
	}

	// Encoded the way the daemon's writeJSON does it.
	start = t.now()
	enc := json.NewEncoder(io.Discard)
	enc.SetIndent("", "  ")
	enc.Encode(body)
	t.add("server.encode", start, t.now(), 0)
	t.close(root)

	// Side probes, outside the request: the engine already fingerprints
	// and clones inside Optimize, so these only time those calls alone.
	start = t.now()
	g.Fingerprint()
	t.add("ir.fingerprint", start, t.now(), 0)
	start = t.now()
	g.Clone()
	t.add("ir.clone", start, t.now(), 0)
	start = t.now()
	ir.Regionize(g, 0)
	t.add("ir.regionize", start, t.now(), 0)
	return out
}

// execute compiles and runs one graph as bytecode.Execute does, timing
// the two halves separately.
func (tr *tracedRun) execute(g *ir.Graph, init map[ir.Var]int64, maxSteps int, opts interp.Options) (interp.Result, error) {
	t := tr.t
	start := t.now()
	p, err := bytecode.Compile(g)
	t.add("bytecode.compile", start, t.now(), 0)
	if err != nil {
		return interp.Result{}, err
	}
	start = t.now()
	res := p.RunWith(init, maxSteps, opts)
	t.add("bytecode.exec", start, t.now(), res.Counts.Steps)
	return res, nil
}

// writeSpans stores the spans as JSON lines.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		enc.Encode(s)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Spans close when a request's top-level self times sum to its wall
// within max(closeShare of the wall, closeAbs); at least closeQuorum of
// the requests must close, and the unattributed time over all requests
// must stay under closeShare.
const (
	closeShare  = 0.05
	closeAbs    = 100 * time.Microsecond
	closeQuorum = 0.995
)

// ledger aggregates the spans of the traced requests into the per-layer
// metrics.
type ledger struct {
	requests int
	wall     time.Duration
	unattr   time.Duration
	closed   int
	negative int // requests whose engine children outran engine.optimize

	// calls and time per span name; n sums the spans' sizes.
	calls map[string]int
	time  map[string]time.Duration
	n     map[string]int

	engineSelf time.Duration
	computed   int // requests that ran passes
	amRounds   int
	solves     int
	visits     int
	tiers      map[string]int
	passRuns   map[string]int
	getTimes   []float64

	attempts, regionHits, regionsReused, regionsTotal int
	warm                                              time.Duration
	candidates                                        int
}

func newLedger() *ledger {
	return &ledger{calls: map[string]int{}, time: map[string]time.Duration{}, n: map[string]int{}, tiers: map[string]int{}, passRuns: map[string]int{}}
}

// fold accounts one finished request: its spans, root first, and the
// engine's report.
func (l *ledger) fold(spans []span, obs observed) {
	root := spans[0]
	l.requests++
	wall := root.dur()
	l.wall += wall
	var top, children time.Duration
	var optimize time.Duration
	computed := false
	for i, s := range spans {
		d := s.dur()
		l.calls[s.Name]++
		l.time[s.Name] += d
		switch {
		case i == 0:
		case strings.HasPrefix(s.Name, "pass."):
			computed = true
			l.passRuns[strings.TrimPrefix(s.Name, "pass.")]++
			children += d
		case s.Name == "engine.optimize":
			optimize = d
			top += d
		case s.Name == "cachestore.get":
			l.getTimes = append(l.getTimes, us(d))
			l.n[s.Name] += s.N
			children += d
		case s.Name == "incr.heads_get":
			l.attempts++
			l.candidates += s.N
			children += d
		case strings.HasPrefix(s.Name, "cachestore.") || strings.HasPrefix(s.Name, "incr."):
			l.n[s.Name] += s.N
			children += d
		case strings.HasPrefix(s.Name, "ir."):
			// side probes sit outside the request
		default:
			l.n[s.Name] += s.N
			top += d
		}
	}
	self := optimize - children
	if self < 0 {
		l.negative++
		self = 0
	}
	l.engineSelf += self
	gap := wall - top
	l.unattr += gap
	tol := time.Duration(closeShare * float64(wall))
	if tol < closeAbs {
		tol = closeAbs
	}
	if gap >= 0 && gap <= tol {
		l.closed++
	}
	res := obs.res
	tier := res.CacheTier
	if !res.CacheHit {
		tier = "miss"
	}
	l.tiers[tier]++
	if computed {
		l.computed++
		l.amRounds += obs.amRounds
		l.solves += obs.solves
		l.visits += obs.visits
	}
	if tier == "region" {
		l.regionHits++
		l.regionsReused += res.RegionsReused
		l.regionsTotal += res.RegionsTotal
		l.warm += optimize
	}
}

func (l *ledger) meanUS(name string) float64 {
	return mean(us(l.time[name]), l.calls[name])
}

// metrics renders the per-layer metrics (probe counts are added by the
// caller).
func (l *ledger) metrics() map[string]float64 {
	share := func(tier string) float64 { return ratio(float64(l.tiers[tier]), float64(l.requests)) }
	perComputed := func(name string) float64 {
		return mean(ms(l.time[name]), l.computed)
	}
	sort.Float64s(l.getTimes)
	parseTime := l.time["parse.parse"]
	steps := l.n["bytecode.exec"]
	m := map[string]float64{
		"server.decode_us":          l.meanUS("server.decode"),
		"server.encode_us":          l.meanUS("server.encode"),
		"parse.parse_us":            l.meanUS("parse.parse"),
		"parse.mb_per_s":            ratio(float64(l.n["parse.parse"])/1e6, parseTime.Seconds()),
		"typeinference.compile_us":  l.meanUS("typeinference.compile"),
		"ir.fingerprint_us":         l.meanUS("ir.fingerprint"),
		"ir.clone_us":               l.meanUS("ir.clone"),
		"ir.regionize_us":           l.meanUS("ir.regionize"),
		"engine.self_us":            mean(us(l.engineSelf), l.requests),
		"engine.memory_hit_share":   share("memory"),
		"engine.disk_hit_share":     share("disk"),
		"engine.region_hit_share":   share("region"),
		"engine.miss_share":         share("miss"),
		"cachestore.get_us":         l.meanUS("cachestore.get"),
		"cachestore.get_p99_us":     quantile(l.getTimes, 0.99),
		"cachestore.put_us":         l.meanUS("cachestore.put"),
		"cachestore.put_kb":         mean(float64(l.n["cachestore.put"])/1024, l.calls["cachestore.put"]),
		"incr.attempts":             mean(float64(l.attempts), l.requests),
		"incr.replays_per_attempt":  mean(float64(l.candidates), l.attempts),
		"incr.hit_share":            ratio(float64(l.regionHits), float64(l.attempts)),
		"incr.regions_reused_share": ratio(float64(l.regionsReused), float64(l.regionsTotal)),
		"incr.warm_us":              mean(us(l.warm), l.regionHits),
		"incr.manifest_put_us":      l.meanUS("incr.manifest_put"),
		"incr.manifest_put_kb":      mean(float64(l.n["incr.manifest_put"])/1024, l.calls["incr.manifest_put"]),
		"pass.init_ms":              perComputed("pass.init"),
		"pass.am_ms":                perComputed("pass.am"),
		"pass.flush_ms":             perComputed("pass.flush"),
		"am.rounds":                 mean(float64(l.amRounds), l.computed),
		"dataflow.solves":           mean(float64(l.solves), l.computed),
		"dataflow.visits":           mean(float64(l.visits), l.computed),
		"printer.print_us":          l.meanUS("printer.print"),
		"bytecode.compile_us":       l.meanUS("bytecode.compile"),
		"bytecode.exec_us":          l.meanUS("bytecode.exec"),
		"bytecode.steps_per_s":      ratio(float64(steps), l.time["bytecode.exec"].Seconds()),
		"trace.wall_us":             mean(us(l.wall), l.requests),
		"trace.unattributed_share":  ratio(float64(l.unattr), float64(l.wall)),
		"trace.closed_share":        ratio(float64(l.closed), float64(l.requests)),
	}
	return m
}

// closes reports whether the spans close within the stated tolerance.
func (l *ledger) closes() error {
	switch {
	case l.negative > 0:
		return fmt.Errorf("%d requests have engine children longer than engine.optimize", l.negative)
	case float64(l.closed) < closeQuorum*float64(l.requests):
		return fmt.Errorf("only %d of %d requests close within max(%.0f%%, %v)", l.closed, l.requests, closeShare*100, closeAbs)
	case float64(l.unattr) > closeShare*float64(l.wall):
		return fmt.Errorf("unattributed time is %.1f%% of the traced wall", 100*float64(l.unattr)/float64(l.wall))
	}
	return nil
}

// liveMix compares the traced tier mix and pass runs with the daemon's
// /metrics deltas over the same request sequence.
func (l *ledger) liveMix(before, after map[string]float64) error {
	delta := func(k string) int { return int(after[k] - before[k]) }
	want := map[string]int{
		"memory": delta(`amoptd_cache_hits_total{tier="memory"}`),
		"disk":   delta(`amoptd_cache_hits_total{tier="disk"}`),
		"region": delta(`amoptd_cache_hits_total{tier="region"}`),
		"miss":   delta(`amoptd_cache_misses_total`),
	}
	for tier, n := range want {
		if l.tiers[tier] != n {
			return fmt.Errorf("tier %s: traced %d, live /metrics %d", tier, l.tiers[tier], n)
		}
	}
	for k := range after {
		if p, ok := strings.CutPrefix(k, `amoptd_pass_runs_total{pass="`); ok {
			p = strings.TrimSuffix(p, `"}`)
			if l.passRuns[p] != delta(k) {
				return fmt.Errorf("pass %s: traced %d runs, live /metrics %d", p, l.passRuns[p], delta(k))
			}
		}
	}
	for p, n := range l.passRuns {
		if _, ok := after[`amoptd_pass_runs_total{pass="`+p+`"}`]; !ok && n > 0 {
			return fmt.Errorf("pass %s: traced %d runs, none live", p, n)
		}
	}
	return nil
}
