// Command perfbench is the repository's end-to-end benchmark: it serves
// real requests through amoptd's handler (server.New(...).Handler()) on a
// loopback listener in this process, drives one of four traffic mixes at
// it, checks every answer against the tree-walking interpreter, and
// prints one JSON result line.
//
// Usage (from the repository root, through perfbench/run.sh, which builds
// this command first):
//
//	perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// --trace 0 reports the end-to-end metrics of an untraced run; --trace 1
// replays the same seeded requests on one goroutine through the layers'
// public functions and reports the per-layer ledger. Set-up, scratch
// stores and span files live under .bench_build in the working directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// scratchDir holds cache directories and span files; it is created in the
// working directory.
const scratchDir = ".bench_build"

// clients is the number of load-generator connections: at most two, and
// never more than the machine's CPUs.
var clients = min(2, runtime.NumCPU())

// setups is how many times an untraced run sets up; setup_s is their
// median.
const setups = 3

// warmup is how long an untraced run drives the daemon, on the same
// streams, before the timed window opens.
const warmup = 4 * time.Second

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 18, "measurement window in seconds")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = traced per-layer metrics")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	if _, err := newWorkload(*name, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	window := time.Duration(*seconds) * time.Second
	var res *result
	var err error
	if *trace == 0 {
		res, err = endToEnd(*name, *seed, window)
	} else {
		res, err = traced(*name, *seed, window)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
}

// setUp generates the workload, starts the daemon and primes it.
func setUp(name string, seed int64) (*workload, *live, error) {
	w, err := newWorkload(name, seed)
	if err != nil {
		return nil, nil, err
	}
	l, err := startLive(w)
	if err != nil {
		return nil, nil, err
	}
	if err := l.primeAll(w); err != nil {
		l.close()
		return nil, nil, err
	}
	return w, l, nil
}

func endToEnd(name string, seed int64, window time.Duration) (*result, error) {
	var setupTimes []float64
	var w *workload
	var l *live
	var streams []func() *request
	for k := 0; k < setups; k++ {
		start := time.Now()
		var err error
		w, l, err = setUp(name, seed)
		if err != nil {
			return nil, err
		}
		streams = streams[:0]
		for c := 0; c < clients; c++ {
			streams = append(streams, w.stream(c))
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		if k < setups-1 {
			l.close()
		}
	}
	defer l.close()

	// A fresh daemon's first seconds are not typical of a run: its heap
	// is still growing (page faults, more frequent collections), so the
	// streams first run untimed.
	warm, _ := l.runClosed(streams, warmup)

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	samples, wall := l.runClosed(streams, window)
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&m1)

	o := newOracle()
	causes := map[string]int{}
	warmFailed := 0
	for _, v := range o.checkAll(warm) {
		if !v.ok {
			warmFailed++
			causes[firstLine(v.why)]++
		}
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i].at < samples[j].at })
	verdicts := o.checkAll(samples)
	lat := make([]float64, len(samples))
	var failed, before, after int
	for i, v := range verdicts {
		lat[i] = ms(samples[i].lat)
		if !v.ok {
			failed++
			lat[i] = ms(window) // a failed request misses any latency limit
			causes[firstLine(v.why)]++
			continue
		}
		before += v.before
		after += v.after
	}
	n := len(samples)
	if n == 0 {
		return nil, fmt.Errorf("no request finished in the window")
	}
	okCount := n - failed
	warmN := len(warm)
	attempted, failedAll := n+warmN, failed+warmFailed
	tail, slices := sliceTail(lat, w.tailQ)
	sort.Float64s(lat)
	beyond := float64(n) * (1 - w.tailQ) / float64(slices)

	// Drop everything but the daemon before measuring the retained heap.
	samples, warm, verdicts, streams, w.prime, w.stream = nil, nil, nil, nil, nil, nil
	runtime.GC()
	runtime.GC()
	var mh runtime.MemStats
	runtime.ReadMemStats(&mh)

	res := &result{Correct: failedAll == 0, Attempted: attempted, Failed: failedAll, Metrics: map[string]metric{
		"setup_s":          {median(setupTimes), "s"},
		"latency_p50_ms":   {quantile(lat, 0.5), "ms"},
		"latency_tail_ms":  {tail, "ms"},
		"throughput_rps":   {float64(okCount) / wall.Seconds(), "1/s"},
		"cpu_ms_per_req":   {ms(cpu) / float64(n), "ms"},
		"allocs_per_req":   {float64(m1.Mallocs-m0.Mallocs) / float64(n), "count"},
		"alloc_kb_per_req": {float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / float64(n), "kB"},
		"retained_heap_mb": {float64(mh.HeapAlloc) / (1 << 20), "MB"},
		"expr_evals_ratio": {ratio(float64(after), float64(before)), "ratio"},
	}}

	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d requests=%d (%d timed, %d in warm-up) failed=%d error_rate=%.4f p90=%.3fms p99=%.3fms tail=p%g (median of %d slices, %.0f samples beyond in each) wall=%.2fs setups=%v\n",
		name, seed, attempted, n, warmN, failedAll, float64(failedAll)/float64(attempted), quantile(lat, 0.9), quantile(lat, 0.99), 100*w.tailQ, slices, beyond, wall.Seconds(), setupTimes)
	if beyond < 10 {
		fmt.Fprintf(os.Stderr, "perfbench: warning: fewer than ten samples beyond p%g\n", 100*w.tailQ)
	}
	for cause, k := range causes {
		fmt.Fprintf(os.Stderr, "perfbench: %d failed: %s\n", k, cause)
	}
	return res, nil
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	if len(s) > 160 {
		s = s[:160]
	}
	return s
}

// traced runs the per-layer ledger: a sequential live run of the seeded
// sequence for the window (bracketed by /metrics scrapes), then the same
// requests replayed traced in process, then the alloc probe, twice.
func traced(name string, seed int64, window time.Duration) (*result, error) {
	w, l, err := setUp(name, seed)
	if err != nil {
		return nil, err
	}
	next := mergedStream(w)
	before, err := l.scrape()
	if err != nil {
		l.close()
		return nil, err
	}
	var reqs []*request
	var samples []sample
	rs := replies{}
	deadline := time.Now().Add(window)
	for time.Now().Before(deadline) {
		q := next()
		reqs = append(reqs, q)
		samples = append(samples, l.send(q, rs))
	}
	after, err := l.scrape()
	l.close()
	if err != nil {
		return nil, err
	}
	var problems []string
	verdicts := newOracle().checkAll(samples)
	failed := 0
	var liveWall time.Duration
	for i, v := range verdicts {
		liveWall += samples[i].lat
		if !v.ok {
			failed++
		}
	}
	if failed > 0 {
		problems = append(problems, fmt.Sprintf("%d live answers failed the oracle", failed))
	}

	tr, err := newTracedRun(w)
	if err != nil {
		return nil, err
	}
	for _, q := range w.prime {
		if a := tr.do(q); a.err != nil {
			tr.close()
			return nil, fmt.Errorf("priming %s: %v", q.key, a.err)
		}
	}
	tr.t.spans = tr.t.spans[:0]
	led := newLedger()
	mismatched := 0
	for i, q := range reqs {
		first := len(tr.t.spans)
		a := tr.do(q)
		led.fold(tr.t.spans[first:], tr.obs)
		if a.err != nil || !sameAnswer(a, samples[i]) {
			mismatched++
		}
	}
	tr.close()
	if mismatched > 0 {
		problems = append(problems, fmt.Sprintf("%d traced answers differ from the live daemon's", mismatched))
	}
	if err := led.closes(); err != nil {
		problems = append(problems, "spans do not close: "+err.Error())
	}
	if err := led.liveMix(before, after); err != nil {
		problems = append(problems, "trace and live /metrics disagree: "+err.Error())
	}
	spanFile := filepath.Join(scratchDir, fmt.Sprintf("spans-%s-seed%d.jsonl", name, seed))
	if err := tr.t.writeSpans(spanFile); err != nil {
		return nil, err
	}
	m := led.metrics()
	m["trace.overhead_ratio"] = ratio(m["trace.wall_us"], us(liveWall)/float64(len(samples)))
	tr = nil

	p1, err := allocProbe(w, reqs)
	if err != nil {
		return nil, err
	}
	p2, err := allocProbe(w, reqs)
	if err != nil {
		return nil, err
	}
	if d := p1.diff(p2); d != "" {
		problems = append(problems, "alloc probe counts differ between two passes: "+d)
	}
	m["ir.fingerprint_allocs"] = meanCount(p1.fingerprint)
	m["ir.clone_allocs"] = meanCount(p1.clone)
	m["engine.hit_allocs"] = meanCount(p1.hit)
	m["incr.warm_allocs"] = meanCount(p1.warm)

	res := &result{Correct: len(problems) == 0, Attempted: len(samples), Failed: failed, Metrics: map[string]metric{}}
	for _, pl := range perLayer {
		res.Metrics[pl.name] = metric{m[pl.name], pl.unit}
	}
	fmt.Fprintf(os.Stderr, "perfbench: traced %s seed=%d requests=%d tiers=%v spans=%s\n", name, seed, len(reqs), led.tiers, spanFile)
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	return res, nil
}

// mergedStream is the single request sequence of a traced run: the
// clients' streams interleaved round robin.
func mergedStream(w *workload) func() *request {
	streams := make([]func() *request, clients)
	for c := range streams {
		streams[c] = w.stream(c)
	}
	i := 0
	return func() *request {
		q := streams[i%len(streams)]()
		i++
		return q
	}
}

// sameAnswer reports whether the traced replay answered like the daemon.
func sameAnswer(a answer, s sample) bool {
	if s.req.path == "/v1/run" {
		return slices.Equal(s.rep.Trace, a.trace)
	}
	return s.rep.Program == a.program
}
