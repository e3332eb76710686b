package main

// The live side: amoptd's handler on a loopback listener in this process,
// and the closed-loop load generator that drives it.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"assignmentmotion/internal/server"
)

// live is one running daemon: server.New(...).Handler() behind a real
// loopback listener, with a private temporary cache directory.
type live struct {
	srv    *server.Server
	hs     *http.Server
	url    string
	dir    string
	client *http.Client
	served chan struct{}
}

// serverConfig is amoptd's default configuration (incremental tier on,
// Workers = GOMAXPROCS) over a fresh cache directory.
func serverConfig(dir string, cacheSize int) server.Config {
	return server.Config{CacheDir: dir, CacheSize: cacheSize, Incremental: true}
}

func startLive(w *workload) (*live, error) {
	dir, err := os.MkdirTemp(scratchDir, "live-")
	if err != nil {
		return nil, err
	}
	srv, err := server.New(serverConfig(dir, w.cacheSize))
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	l := &live{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		url:    "http://" + ln.Addr().String(),
		dir:    dir,
		served: make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     clients,
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		}},
	}
	go func() {
		l.hs.Serve(ln)
		close(l.served)
	}()
	return l, nil
}

func (l *live) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	l.hs.Shutdown(ctx)
	<-l.served
	l.client.CloseIdleConnections()
	l.srv.Close()
	os.RemoveAll(l.dir)
}

func (l *live) post(path string, body []byte) (int, []byte, error) {
	resp, err := l.client.Post(l.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// primeAll sends the workload's priming requests in order, one at a time.
func (l *live) primeAll(w *workload) error {
	for _, q := range w.prime {
		status, body, err := l.post(q.path, q.body)
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("priming %s: HTTP %d: %s", q.key, status, bytes.TrimSpace(body))
		}
	}
	return nil
}

// scrape reads the daemon's /metrics counters this benchmark compares
// against its trace: cache outcomes by tier and pass runs by pass.
func (l *live) scrape() (map[string]float64, error) {
	resp, err := l.client.Get(l.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		name := line[:i]
		switch {
		case strings.HasPrefix(name, "amoptd_cache_hits_total"),
			strings.HasPrefix(name, "amoptd_cache_misses_total"),
			strings.HasPrefix(name, "amoptd_pass_runs_total"):
			v, err := strconv.ParseFloat(line[i+1:], 64)
			if err == nil {
				out[name] = v
			}
		}
	}
	return out, sc.Err()
}

// sample is one finished request of the live run.
type sample struct {
	req *request
	rep *reply
	// at is when the request was sent, from the start of the run.
	at     time.Duration
	lat    time.Duration
	status int
}

// reply is the part of an answer that the oracle and the traced run
// check. The body is decoded and dropped as soon as it arrives: kept
// whole, the bodies (each with its own timings) pile up by hundreds of
// megabytes in a run, and as the heap grows the collector runs less and
// less often, so the daemon would speed up through the run.
type reply struct {
	Outcome    string  `json:"outcome"`
	Program    string  `json:"program"`
	Trace      []int64 `json:"trace"`
	TraceMatch bool    `json:"traceMatch"`
	Before     struct {
		ExprEvals int `json:"exprEvals"`
	} `json:"before"`
	After struct {
		ExprEvals int `json:"exprEvals"`
	} `json:"after"`
	Error string `json:"error"`
	// failure is set when the request failed in transport or its body
	// did not decode.
	failure string
}

// replies keeps one reply per request key, so that equal answers to a
// repeated request share one copy.
type replies map[string]*reply

func (rs replies) intern(key string, r *reply) *reply {
	if old, ok := rs[key]; ok && old.Outcome == r.Outcome && old.Program == r.Program &&
		slices.Equal(old.Trace, r.Trace) && old.TraceMatch == r.TraceMatch &&
		old.Before == r.Before && old.After == r.After && old.Error == r.Error && old.failure == r.failure {
		return old
	}
	rs[key] = r
	return r
}

// samplesPerSecond bounds the rate at which one client is expected to
// finish requests; each client's sample buffer is allocated for it up
// front, so the heap does not grow during a run.
const samplesPerSecond = 4000

// runClosed drives the daemon closed loop: each of the clients sends its
// stream's next request as soon as the previous reply has arrived, until
// the window closes. It returns the samples and the window's wall time
// (the last reply, not the deadline).
func (l *live) runClosed(streams []func() *request, window time.Duration) ([]sample, time.Duration) {
	per := make([][]sample, len(streams))
	for c := range per {
		per[c] = make([]sample, 0, int(window.Seconds()*samplesPerSecond))
	}
	start := time.Now()
	deadline := start.Add(window)
	var wg sync.WaitGroup
	for c := range streams {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rs := replies{}
			for time.Now().Before(deadline) {
				q := streams[c]()
				at := time.Since(start)
				s := l.send(q, rs)
				s.at = at
				per[c] = append(per[c], s)
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	var out []sample
	for _, s := range per {
		out = append(out, s...)
	}
	return out, wall
}

// send posts q, times it from now and keeps its decoded reply.
func (l *live) send(q *request, rs replies) sample {
	t0 := time.Now()
	status, body, err := l.post(q.path, q.body)
	lat := time.Since(t0)
	r := &reply{}
	if err != nil {
		r.failure = "transport: " + err.Error()
	} else if err := json.Unmarshal(body, r); err != nil {
		r.failure = fmt.Sprintf("undecodable answer (%v): %.200s", err, body)
	}
	return sample{req: q, rep: rs.intern(q.key, r), lat: lat, status: status}
}
