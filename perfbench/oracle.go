package main

// The output oracle: every answer is checked against the tree-walking
// interpreter, outside any timed window. An optimized program must
// produce the source's out-trace on seeded inputs; a /v1/run answer must
// carry exactly the source's interpreted trace.

import (
	"fmt"
	"hash/fnv"
	"net/http"
	"sync"

	"assignmentmotion/internal/interp"
	"assignmentmotion/internal/ir"
	"assignmentmotion/internal/parse"
	"assignmentmotion/internal/typeinference"
)

// oracleInputs is the number of seeded input environments each optimized
// program is run on.
const oracleInputs = 2

// verdict is the oracle's judgement of one answer. before/after are the
// interpreted expression evaluations of source and answer (Σ over the
// oracle's inputs), the paper's expression-optimality measure.
type verdict struct {
	ok            bool
	why           string
	before, after int
}

type oracle struct {
	mu     sync.Mutex
	memo   map[string]memoVerdict
	traces map[string]expectedTrace
}

// memoVerdict remembers a checked answer: a later answer to the same key
// with the same payload gets the same verdict without re-interpreting.
type memoVerdict struct {
	payload string
	v       verdict
}

func newOracle() *oracle {
	return &oracle{memo: map[string]memoVerdict{}, traces: map[string]expectedTrace{}}
}

// parseSource parses src the way the daemon does for dialect.
func parseSource(dialect, src string) (*ir.Graph, error) {
	switch dialect {
	case "", "fg":
		return parse.Parse(src)
	case "nested":
		return parse.ParseNested(src)
	case "prog":
		return parse.ParseProgram(src)
	case "fun":
		g, _, err := typeinference.Compile(src)
		return g, err
	}
	return nil, fmt.Errorf("unknown dialect %q", dialect)
}

func keySeed(key string) int64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return int64(h.Sum64() >> 1)
}

// check judges one live sample.
func (o *oracle) check(s sample) verdict {
	switch {
	case s.rep.failure != "":
		return verdict{why: s.rep.failure}
	case s.status != http.StatusOK:
		return verdict{why: fmt.Sprintf("HTTP %d: %.200s", s.status, s.rep.Error)}
	}
	if s.req.path == "/v1/run" {
		return o.checkRun(s.req, s.rep)
	}
	return o.checkProgram(s.req, s.rep.Outcome, s.rep.Program)
}

func (o *oracle) lookup(key, payload string) (verdict, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	m, ok := o.memo[key]
	if ok && m.payload == payload {
		return m.v, true
	}
	return verdict{}, false
}

func (o *oracle) store(key, payload string, v verdict) verdict {
	o.mu.Lock()
	o.memo[key] = memoVerdict{payload, v}
	o.mu.Unlock()
	return v
}

// checkProgram verifies that an optimized program answers its source.
func (o *oracle) checkProgram(q *request, outcome, program string) verdict {
	if outcome != "optimized" {
		return verdict{why: "outcome " + outcome}
	}
	if v, ok := o.lookup(q.key, program); ok {
		return v
	}
	return o.store(q.key, program, verifyProgram(q, program))
}

func verifyProgram(q *request, program string) verdict {
	src, err := parseSource(q.dialect, q.src)
	if err != nil {
		return verdict{why: "source does not parse: " + err.Error()}
	}
	opt, err := parse.ParseWith(program, parse.Options{AllowTemps: true})
	if err != nil {
		return verdict{why: "answer does not parse: " + err.Error()}
	}
	if err := opt.Validate(); err != nil {
		return verdict{why: "answer is invalid: " + err.Error()}
	}
	v := verdict{ok: true}
	for _, env := range inputsFor(rng(keySeed(q.key)), src, oracleInputs) {
		a := interp.Run(src, env, 0)
		b := interp.Run(opt, env, 0)
		if !interp.TraceEqual(a, b) {
			return verdict{why: fmt.Sprintf("trace differs on %v: %v vs %v", env, a.Trace, b.Trace)}
		}
		v.before += a.Counts.ExprEvals
		v.after += b.Counts.ExprEvals
	}
	return v
}

// checkRun verifies a /v1/run answer against the interpreted source.
func (o *oracle) checkRun(q *request, resp *reply) verdict {
	if resp.Outcome != "ran" || !resp.TraceMatch {
		return verdict{why: fmt.Sprintf("outcome %s traceMatch=%v", resp.Outcome, resp.TraceMatch)}
	}
	want := o.expected(q)
	if want.err != nil {
		return verdict{why: want.err.Error()}
	}
	if got := fmt.Sprint(resp.Trace); got != want.trace {
		return verdict{why: fmt.Sprintf("trace %s, interpreter says %s", got, want.trace)}
	}
	return verdict{ok: true, before: resp.Before.ExprEvals, after: resp.After.ExprEvals}
}

// expectedTrace is the interpreter's out-trace of one /v1/run request.
type expectedTrace struct {
	trace string
	err   error
}

// expected runs the source of a /v1/run request on the tree-walking
// interpreter, once per key.
func (o *oracle) expected(q *request) expectedTrace {
	o.mu.Lock()
	want, ok := o.traces[q.key]
	o.mu.Unlock()
	if ok {
		return want
	}
	want = interpretRun(q)
	o.mu.Lock()
	o.traces[q.key] = want
	o.mu.Unlock()
	return want
}

func interpretRun(q *request) expectedTrace {
	g, err := parseSource(q.dialect, q.src)
	if err != nil {
		return expectedTrace{err: fmt.Errorf("source does not parse: %v", err)}
	}
	env := make(map[ir.Var]int64, len(q.inputs))
	for k, x := range q.inputs {
		env[ir.Var(k)] = x
	}
	res := interp.RunWith(g, env, runMaxSteps, interp.Options{})
	if res.Truncated || res.Trapped {
		return expectedTrace{err: fmt.Errorf("reference execution of %s did not finish", q.key)}
	}
	return expectedTrace{trace: fmt.Sprint(res.Trace)}
}

// checkAll judges every sample on two goroutines.
func (o *oracle) checkAll(samples []sample) []verdict {
	out := make([]verdict, len(samples))
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(samples); i += clients {
				out[i] = o.check(samples[i])
			}
		}(w)
	}
	wg.Wait()
	return out
}
