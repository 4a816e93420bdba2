package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptrace"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sparseap/internal/automata"
	"sparseap/internal/serve"
	"sparseap/internal/sim"
)

// Load shape shared by every serve stage: one process, at most two
// request goroutines over at most two connections, four tenants.
const (
	clients = 2
	tenants = 4
	// maxLateP99 is the generator-health limit: when the open-loop
	// dispatcher itself hands requests out later than this (p99), the
	// generator fell behind its schedule and the run is invalid.
	maxLateP99 = 50 * time.Millisecond
	// drainGrace bounds how long queued open-loop requests may still
	// start after the schedule ends; later ones count as failed.
	drainGrace = 20 * time.Second
)

// server is an in-process serve.Server on a loopback listener.
type server struct {
	srv  *serve.Server
	base string
	done chan error
}

// startServer starts a server over the timed checkpoint store, makes every
// app resident and sends each its first match, which builds the app's
// static partition lazily. It returns the per-app first-match times.
func (r *run) startServer(hc *http.Client, parent int) (*server, []float64, error) {
	srv := serve.New(serve.Config{
		Store:    r.store,
		Capacity: r.w.capacity(),
		// Admission must never shed this benchmark's own load: at most
		// two requests are in flight, so the token bucket is opened up.
		RatePerSec: 1e6,
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	s := &server{srv: srv, base: "http://" + l.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- srv.Serve(l) }()
	for _, a := range r.served {
		h := r.begin("serve.add_app", parent, a.Abbr)
		err := srv.AddApp(a.Abbr, a.Net, a.fingerprint)
		r.end(h)
		if err != nil {
			s.stop()
			return nil, nil, fmt.Errorf("%s: AddApp: %w", a.Abbr, err)
		}
	}
	var first []float64
	for _, a := range r.served {
		h := r.begin("serve.first_match", parent, a.Abbr)
		start := time.Now()
		m := r.match(context.Background(), hc, s.base, "setup", a.Abbr, a.windows[0])
		first = append(first, float64(time.Since(start).Nanoseconds())/1e6)
		r.end(h)
		r.op(a.Abbr+" first match", m.err, m.wrong)
		if m.err != nil {
			s.stop()
			return nil, nil, m.err
		}
	}
	return s, first, nil
}

// stop drains the server and waits for its accept loop to return.
func (s *server) stop() error {
	err := s.srv.Drain(10 * time.Second)
	if serr := <-s.done; err == nil {
		err = serr
	}
	return err
}

func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     clients,
		MaxIdleConnsPerHost: clients,
	}}
}

// setupsPerRound is how many server set-ups each round of a workload
// without the compile pipeline starts with.
const setupsPerRound = 3

// serverSetups is the set-up of a workload without the compile pipeline:
// server start, AddApp and the first match per app, repeated at the start
// of every round so that setup_s, their median, samples the host across
// the whole run. Each set-up stops the previous server; the last stays up
// for the round's serve stage.
func (r *run) serverSetups(hc *http.Client) error {
	for i := 0; i < setupsPerRound; i++ {
		if r.srv != nil {
			err := r.srv.stop()
			r.srv = nil
			hc.CloseIdleConnections()
			if err != nil {
				return err
			}
		}
		r.pass = len(r.setupReps)
		r.cal.sample()
		root := r.begin("setup.server", -1, "")
		start := time.Now()
		s, first, err := r.startServer(hc, root)
		r.setupReps = append(r.setupReps, []interval{since(start)})
		r.end(root)
		if err != nil {
			return err
		}
		r.firstMatch = append(r.firstMatch, first...)
		r.srv = s
	}
	r.cal.sample()
	r.pass = -1
	return nil
}

// matchResult is one /v1/match call as the client saw it.
type matchResult struct {
	err        error
	wrong      bool
	replyBytes int
	connWait   time.Duration
}

// match posts one window and checks the reply against its oracle.
func (r *run) match(ctx context.Context, hc *http.Client, base, tenant, app string, w window) matchResult {
	var res matchResult
	start := time.Now()
	ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
		GotConn: func(httptrace.GotConnInfo) { res.connWait = time.Since(start) },
	})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/match?app="+app, bytes.NewReader(w.body))
	if err != nil {
		res.err = err
		return res
	}
	req.Header.Set("X-Tenant", tenant)
	resp, err := hc.Do(req)
	if err != nil {
		res.err = err
		return res
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	res.replyBytes = len(body)
	if err != nil {
		res.err = err
		return res
	}
	if resp.StatusCode != http.StatusOK {
		res.err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
		return res
	}
	var m struct {
		NumReports int64      `json:"numReports"`
		Reports    [][2]int64 `json:"reports"`
	}
	if err := json.Unmarshal(body, &m); err != nil {
		res.err = err
		return res
	}
	got := make([]sim.Report, len(m.Reports))
	for i, p := range m.Reports {
		got[i] = sim.Report{Pos: p[0], State: automata.StateID(p[1])}
	}
	res.wrong = m.NumReports != int64(len(w.oracle)) || !sameReports(got, w.oracle)
	return res
}

// event is one scheduled open-loop request.
type event struct {
	due    time.Duration
	stream bool
	app    int
	win    int // window, or stream body for a stream
	tenant int
}

// counters are the server counters reported as per-layer metrics: their
// growth over each serve round, summed.
var counters = [][2]string{
	{"serve_guard_trips", "serve.guard_trips"},
	{"serve_degraded", "serve.degraded"},
	{"serve_shed", "serve.sheds"},
}

// startServing starts the server the serve rounds use on a workload whose
// set-up is the compile pipeline; it stays up for every round.
func (r *run) startServing(hc *http.Client) error {
	root := r.begin("serve.start", -1, "")
	s, first, err := r.startServer(hc, root)
	r.end(root)
	if err != nil {
		return err
	}
	r.firstMatch = append(r.firstMatch, first...)
	r.srv = s
	return nil
}

// stopServing drains the last server.
func (r *run) stopServing() error {
	err := r.srv.stop()
	r.srv = nil
	return err
}

// serveRound drives the resident apps for d: an open-loop schedule of
// matches and checkpointed stream sessions, then a closed loop of two
// clients for capacity.
func (r *run) serveRound(hc *http.Client, d time.Duration, round int) error {
	r.pass = round
	root := r.begin("serve.round", -1, "")
	defer r.end(root)
	r.store.setParent(root)
	reg := r.srv.srv.Registry()
	before := make([]int64, len(counters))
	for i, c := range counters {
		before[i] = reg.Total(c[0])
	}
	r.cal.sample()
	if err := r.openLoop(hc, root, share(d, 1-closedShare), round); err != nil {
		return err
	}
	r.cal.sample()
	r.closedLoop(hc, root, share(d, closedShare), round)
	for i, c := range counters {
		r.layerAdd(c[1], float64(reg.Total(c[0])-before[i]))
	}
	r.pass = -1
	return nil
}

// schedule lays out one round of the open loop: requests at a fixed rate,
// enough for the run to hold at least 1000 matches, every streamEvery-th a
// stream session. Matches and streams each visit the apps in turn, so
// every seed gets the same app mix; the seed picks windows and tenants.
func (r *run) schedule(d time.Duration, round int) []event {
	n := int(rate * d.Seconds())
	if floor := (1000 + 1000/streamEvery + rounds) / rounds; n < floor {
		n = floor
	}
	rng := rand.New(rand.NewSource(r.seed*7919 + int64(round)))
	evs := make([]event, n)
	for i := range evs {
		ev := event{
			due:    time.Duration(float64(i) / rate * float64(time.Second)),
			stream: i%streamEvery == streamEvery/2,
			win:    rng.Intn(len(r.served[0].windows)),
			tenant: rng.Intn(tenants),
		}
		if ev.stream {
			ev.app = r.streamSeq % len(r.served)
			ev.win = r.streamSeq / len(r.served) % len(r.served[0].streams)
			r.streamSeq++
		} else {
			ev.app = r.matchApp(r.matchSeq)
			r.matchSeq++
		}
		evs[i] = ev
	}
	return evs
}

// matchApp returns the index of the app the i-th match goes to.
func (r *run) matchApp(i int) int {
	name := serveMix[i%len(serveMix)]
	for j, a := range r.served {
		if a.Abbr == name {
			return j
		}
	}
	panic("perfbench: serveMix names an app that is not served: " + name)
}

// openLoop runs one round's schedule. Each request's latency counts from
// when it was due, so a stall also charges the requests queued behind it.
func (r *run) openLoop(hc *http.Client, parent int, d time.Duration, round int) error {
	evs := r.schedule(d, round)
	queue := make(chan event, len(evs)) // sized to the number of sends
	ol := &r.open
	start := time.Now()
	end := evs[len(evs)-1].due
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ev := range queue {
				a := r.served[ev.app]
				tenant := fmt.Sprintf("t%d", ev.tenant)
				if time.Since(start) > end+drainGrace {
					r.op(a.Abbr+" open-loop request", errors.New("not started before the drain deadline"), false)
					if !ev.stream {
						r.mu.Lock()
						ol.matches++
						r.mu.Unlock()
					}
					continue
				}
				if ev.stream {
					body := a.streams[ev.win]
					iv, wrong, err := r.stream(hc, parent, tenant, a.Abbr, body)
					r.op(a.Abbr+" stream", err, wrong)
					r.mu.Lock()
					if err == nil && !wrong {
						ol.streamBytes += len(body.body)
						ol.streams = append(ol.streams, iv)
					}
					r.mu.Unlock()
					continue
				}
				m := r.timedMatch(hc, parent, tenant, a, a.windows[ev.win])
				lat := since(start.Add(ev.due))
				r.mu.Lock()
				ol.matches++
				if m.err == nil && !m.wrong {
					ol.lat = append(ol.lat, lat)
				}
				r.mu.Unlock()
			}
		}()
	}
	for i, ev := range evs {
		time.Sleep(time.Until(start.Add(ev.due)))
		ol.late = append(ol.late, float64((time.Since(start)-ev.due).Nanoseconds())/1e6)
		queue <- ev
		if i == len(evs)-1 {
			ol.backlog = max(ol.backlog, len(queue))
		}
	}
	close(queue)
	wg.Wait()
	if p99 := percentile(ol.late, 99); p99 > float64(maxLateP99.Milliseconds()) {
		return fmt.Errorf("invalid run: the open-loop generator fell behind its schedule (p99 dispatch lateness %.1f ms > %v)", p99, maxLateP99)
	}
	return nil
}

// openStats accumulates the open loop over the rounds.
type openStats struct {
	lat         []interval // correct matches, from when each was due
	late        []float64  // dispatch lateness in ms, generator health
	matches     int
	streamBytes int
	streams     []interval // correct stream sessions
	backlog     int        // most requests still queued when a schedule ended
}

// rpsSlice is one closed-loop chunk and the correct replies in it.
type rpsSlice struct {
	iv interval
	n  int64
}

// serveMetrics turns the accumulated serve rounds into metrics. The SLO
// is judged on latency as measured; the percentiles are reported at the
// reference host speed like every other host time.
func (r *run) serveMetrics() {
	ol := &r.open
	var lat []float64
	met := 0
	for _, iv := range ol.lat {
		if iv.end.Sub(iv.start) <= sloMS*time.Millisecond {
			met++
		}
		lat = append(lat, 1000*r.cal.openSeconds(iv))
	}
	r.e2e["match_p50_ms"] = percentile(lat, 50)
	r.e2e["match_p99_ms"] = percentile(lat, 99)
	r.e2e["match_slo_frac"] = float64(met) / float64(ol.matches)
	streamSecs := 0.0
	for _, iv := range ol.streams {
		streamSecs += r.cal.openSeconds(iv)
	}
	r.e2e["stream_mb_per_s"] = float64(ol.streamBytes) / 1e6 / streamSecs
	var n int64
	var slices []interval
	for _, s := range r.rpsSlices {
		n += s.n
		slices = append(slices, s.iv)
	}
	r.e2e["match_rps"] = float64(n) / r.secondsOf(slices)
	r.layerSet("loadgen.late_ms", percentile(ol.late, 99))
	r.layerSet("loadgen.backlog", float64(ol.backlog))
}

// timedMatch runs one match with its span and records its service time.
func (r *run) timedMatch(hc *http.Client, parent int, tenant string, a *appState, w window) matchResult {
	h := r.begin("serve.match", parent, a.Abbr)
	start := time.Now()
	m := r.match(context.Background(), hc, r.srv.base, tenant, a.Abbr, w)
	ms := float64(time.Since(start).Nanoseconds()) / 1e6
	r.end(h)
	r.op(a.Abbr+" match", m.err, m.wrong)
	r.mu.Lock()
	r.service[a.Abbr] = append(r.service[a.Abbr], ms)
	r.replyBytes = append(r.replyBytes, float64(m.replyBytes))
	r.connWait = append(r.connWait, float64(m.connWait.Nanoseconds())/1e6)
	r.mu.Unlock()
	return m
}

// stream runs one checkpointed stream session and checks it delivered
// every report exactly once.
func (r *run) stream(hc *http.Client, parent int, tenant, app string, w window) (iv interval, wrong bool, err error) {
	h := r.begin("serve.stream", parent, app)
	defer r.end(h)
	c := &serve.Client{URL: func() string { return r.srv.base }, Tenant: tenant, HTTP: hc}
	start := time.Now()
	res, err := c.Stream(context.Background(), app, w.body)
	iv = since(start)
	if err != nil {
		return iv, false, err
	}
	// A duplicated or lost report changes the count, so equality with the
	// oracle is the exactly-once check.
	return iv, !sameReports(res.Reports, w.oracle), nil
}

// closedLoop runs two clients back to back for d, in chunks of half a
// second with a host-loop sample between them, and records each chunk's
// correct replies and its interval (until its last reply arrived).
func (r *run) closedLoop(hc *http.Client, parent int, d time.Duration, round int) {
	const chunk = 500 * time.Millisecond
	var next atomic.Int64 // visits the apps in turn across both clients
	rngs := make([]*rand.Rand, clients)
	for c := range rngs {
		rngs[c] = rand.New(rand.NewSource(r.seed*104729 + int64(rounds*c+round)))
	}
	for start := time.Now(); time.Since(start) < d; {
		var (
			wg sync.WaitGroup
			ok atomic.Int64
		)
		from := time.Now()
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(rng *rand.Rand) {
				defer wg.Done()
				for time.Since(from) < chunk {
					a := r.served[r.matchApp(int(next.Add(1)-1))]
					m := r.timedMatch(hc, parent, fmt.Sprintf("t%d", rng.Intn(tenants)), a, a.windows[rng.Intn(len(a.windows))])
					if m.err == nil && !m.wrong {
						ok.Add(1)
					}
				}
			}(rngs[c])
		}
		wg.Wait()
		r.rpsSlices = append(r.rpsSlices, rpsSlice{since(from), ok.Load()})
		r.cal.sample()
	}
}

// serviceMS returns the median match service time per app, and over all.
func (r *run) serviceMS() (map[string]float64, float64) {
	per := map[string]float64{}
	var all []float64
	names := make([]string, 0, len(r.service))
	for n := range r.service {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		per[n] = median(r.service[n])
		all = append(all, r.service[n]...)
	}
	return per, median(all)
}
