package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"sparseap/internal/ap"
	"sparseap/internal/automata"
	"sparseap/internal/checkpoint"
	"sparseap/internal/hotcold"
	"sparseap/internal/sim"
	"sparseap/internal/workloads"
)

// workload is one set of inputs the benchmark runs. Every workload goes
// through the same three stages — set-up, execute, serve — so it reports
// every end-to-end metric; what differs is the compile and execute apps,
// their scale, and how the run's time is shared out, which decides the
// layer that dominates. The serve stage's traffic is the same on both
// (see the constants below).
type workload struct {
	name string
	// apps run through the compile and execute stages.
	apps     []string
	divisor  int
	inputLen int
	// minCapacity floors the half-core capacity (see capacity).
	minCapacity int
	// Shares of --seconds given to each stage. A workload with a compile
	// share reaches its first matchable symbol through the whole analysis
	// pipeline, repeated for that long; one without reaches it through
	// server start, AddApp and the first match per app.
	compileShare, execShare, serveShare float64
	// heldOut, when positive, runs the execute stage on this many bytes
	// from the second half of each input instead of the whole input (the
	// compile workload profiles on the first 1%, so this part is unseen).
	heldOut int
}

// The serve stage's traffic. The open-loop rate is about half the
// 2-client closed-loop capacity of this mix at the execute workload's
// scale (≈220 req/s measured on a 2-core machine); at the compile
// workload's smaller scale the same traffic loads the server less.
const (
	windowLen   = 8192  // match body bytes
	rate        = 120.0 // open-loop requests per second
	streamEvery = 20    // one stream session every streamEvery requests
	streamLen   = 16384 // stream body bytes
	closedShare = 0.3   // share of the serve stage spent in the closed loop
)

var (
	// servedApps are resident in the server.
	servedApps = []string{"PEN", "Snort", "HM500", "TCP"}
	// serveMix is the order matches visit the apps in. PEN's JSON-heavy
	// replies are the per-call cost the serve stage exists for, so it gets
	// two slots of five; the odd-length cycle keeps the latency median
	// inside one app's distribution instead of on the edge between two.
	serveMix = []string{"PEN", "Snort", "HM500", "TCP", "PEN"}
)

// capacity is the AP half-core size in STEs: the paper's 24K scaled by the
// divisor, as the generators scale NFA depth, but never below the 3000 of
// apsim's default when that is needed to hold SPM's widest NFA (2154
// states at divisor 32).
func (w *workload) capacity() int { return max(24000/w.divisor, w.minCapacity) }

// compiles reports whether the workload's set-up is the analysis pipeline.
func (w *workload) compiles() bool { return w.compileShare > 0 }

var allWorkloads = []*workload{
	{
		name:         "compile",
		apps:         []string{"Snort_L", "HM1500", "CAV", "Snort", "SPM", "DS", "PEN"},
		divisor:      32,
		inputLen:     32768,
		minCapacity:  3000,
		compileShare: 0.64, execShare: 0.16, serveShare: 0.20,
		heldOut: 8192,
	},
	{
		name:      "execute",
		apps:      []string{"PEN", "Brill", "HM500", "Snort", "EM"},
		divisor:   16,
		inputLen:  65536,
		execShare: 0.66, serveShare: 0.34,
	},
}

// appState is one generated application and everything precomputed for it
// before any clock starts.
type appState struct {
	*workloads.App
	fingerprint string
	execIn      []byte       // what the execute stage runs
	oracle      []sim.Report // sim.Run(App.Net, execIn), sorted
	windows     []window     // match bodies with their oracle
	streams     []window     // stream-session bodies with their oracle

	// Set by the set-up stage: the network the execute stage runs (the
	// minimized one on the compile workload) and its profiled partition.
	net  *automata.Network
	part *hotcold.Partition
	// origOf maps net's state IDs back to App.Net's (nil: the same net).
	origOf []automata.StateID
}

type window struct {
	body   []byte
	oracle []sim.Report
}

// run is one benchmark invocation.
type run struct {
	w      *workload
	seed   int64
	budget time.Duration
	ckDir  string
	tr     *tracer // nil when untraced
	cfg    ap.Config
	apps   []*appState // compile and execute stages
	served []*appState // resident in the server
	store  *timedStore

	// pass numbers the repetition a span belongs to; -1 outside passes.
	pass int
	// Traced and untraced wall times of alternating execute passes
	// (trace mode only), the basis of the reported tracing overhead.
	passWall [2][]interval

	mu        sync.Mutex
	attempted int64
	failed    int64
	wrong     int64
	problems  []string

	// Observations accumulated over the rounds (guarded by mu where
	// goroutines share them). Host times are kept as intervals and scaled
	// to the reference host speed when the result is assembled.
	cal          *hostCal
	setupReps    [][]interval // each set-up: the intervals its clock ran
	passes       []execPass
	speedup      float64
	compileSpent time.Duration
	execSpent    time.Duration
	open         openStats
	rpsSlices    []rpsSlice
	matchSeq     int
	streamSeq    int
	srv          *server
	firstMatch   []float64
	service      map[string][]float64
	replyBytes   []float64
	connWait     []float64

	e2e   map[string]float64
	layer map[string]float64
}

func newRun(w *workload, seed int64, budget time.Duration, trace bool, ckDir string) *run {
	r := &run{
		w: w, seed: seed, budget: budget, ckDir: ckDir, pass: -1,
		cfg:     ap.DefaultConfig().WithCapacity(w.capacity()),
		e2e:     map[string]float64{},
		layer:   map[string]float64{},
		service: map[string][]float64{},
		cal:     newHostCal(),
	}
	if trace {
		r.tr = newTracer()
	}
	return r
}

func (r *run) begin(name string, parent int, id string) int {
	return r.tr.begin(name, parent, id, r.pass)
}

func (r *run) end(h int) { r.tr.end(h) }

// op records one attempted operation: err marks it failed, a report
// mismatch marks it wrong (and failed).
func (r *run) op(what string, err error, wrong bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err == nil && !wrong {
		return
	}
	r.failed++
	msg := fmt.Sprintf("%s: %v", what, err)
	if wrong {
		r.wrong++
		msg = what + ": report stream differs from sim.Run"
	}
	if len(r.problems) < 20 {
		r.problems = append(r.problems, msg)
	}
}

// rounds interleaves the stages: each round gives every stage its share of
// a quarter of the budget, so each stage samples the host across the whole
// run instead of one stretch of it (the host's speed drifts over seconds).
const rounds = 4

// run executes the workload and assembles its result.
func (r *run) run() (*result, error) {
	r.store = &timedStore{r: r}
	ds, err := checkpoint.Open(r.ckDir)
	if err != nil {
		return nil, err
	}
	r.store.Store = ds
	if err := r.generate(); err != nil {
		return nil, err
	}
	// upTo is a stage's cumulative allowance by the end of round i.
	upTo := func(frac float64, i int) time.Duration {
		return share(r.budget, frac) * time.Duration(i+1) / rounds
	}
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	if r.w.compiles() {
		// The first pipeline pass produces what the other stages run;
		// the server is started once.
		if err := r.compileRound(upTo(r.w.compileShare, 0)); err != nil {
			return nil, err
		}
		if err := r.startServing(hc); err != nil {
			return nil, err
		}
	} else if err := r.partitionApps(); err != nil {
		return nil, err
	}
	for i := 0; i < rounds; i++ {
		// Each stage starts from a collected heap, so the garbage one
		// stage leaves is not charged to the next.
		switch {
		case r.w.compiles() && i > 0:
			runtime.GC()
			err = r.compileRound(upTo(r.w.compileShare, i))
		case !r.w.compiles():
			runtime.GC()
			err = r.serverSetups(hc)
		}
		if err == nil {
			runtime.GC()
			err = r.executeRound(upTo(r.w.execShare, i))
		}
		if err == nil {
			runtime.GC()
			err = r.serveRound(hc, share(r.budget, r.w.serveShare)/rounds, i)
		}
		if err != nil {
			if r.srv != nil {
				r.srv.stop()
			}
			return nil, err
		}
	}
	if err := r.stopServing(); err != nil {
		return nil, err
	}
	if r.tr != nil && len(r.passWall[1]) == 0 {
		// The overhead needs an untraced pass; a short budget may not
		// have left room for one.
		if err := r.executeRound(r.execSpent + 1); err != nil {
			return nil, err
		}
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "perfbench:", p)
	}
	return r.result()
}

// generate builds every app from the seed and computes every oracle. It
// runs before any clock starts.
func (r *run) generate() error {
	cfg := workloads.Config{Divisor: r.w.divisor, InputLen: r.w.inputLen, Seed: r.seed}
	rng := rand.New(rand.NewSource(r.seed))
	built := map[string]*appState{}
	build := func(name string) (*appState, error) {
		if a := built[name]; a != nil {
			return a, nil
		}
		app, err := workloads.Build(name, cfg)
		if err != nil {
			return nil, err
		}
		a := &appState{App: app, fingerprint: cfg.Fingerprint(name), net: app.Net}
		built[name] = a
		return a, nil
	}
	for _, name := range r.w.apps {
		a, err := build(name)
		if err != nil {
			return err
		}
		a.execIn = a.Input
		if n := r.w.heldOut; n > 0 {
			a.execIn = a.Input[len(a.Input)/2:][:n]
		}
		h := r.begin("sim.run", -1, name)
		start := time.Now()
		res := sim.Run(a.Net, a.execIn, sim.Options{CollectReports: true})
		r.layerAdd("sim.run_ns", float64(time.Since(start).Nanoseconds()))
		r.end(h)
		r.layerAdd("sim.run_symbols", float64(len(a.execIn)))
		a.oracle = sortedReports(res.Reports)
		if r.tr != nil {
			for _, k := range []struct {
				name string
				kern sim.Kernel
			}{{"sparse", sim.KernelSparse}, {"dense", sim.KernelDense}} {
				start := time.Now()
				sim.Run(a.Net, a.execIn, sim.Options{Kernel: k.kern})
				r.layerAdd("sim."+k.name+"_ns", float64(time.Since(start).Nanoseconds()))
			}
		}
		r.apps = append(r.apps, a)
	}
	for _, name := range servedApps {
		a, err := build(name)
		if err != nil {
			return err
		}
		for i := 0; i < 64; i++ {
			a.windows = append(a.windows, r.cut(rng, a.App, windowLen))
		}
		for i := 0; i < 4; i++ {
			a.streams = append(a.streams, r.cut(rng, a.App, streamLen))
		}
		r.served = append(r.served, a)
	}
	return nil
}

// cut draws a random slice of the app's input and its oracle.
func (r *run) cut(rng *rand.Rand, app *workloads.App, n int) window {
	if n > len(app.Input) {
		n = len(app.Input)
	}
	off := rng.Intn(len(app.Input) - n + 1)
	body := app.Input[off : off+n]
	res := sim.Run(app.Net, body, sim.Options{CollectReports: true})
	return window{body: body, oracle: sortedReports(res.Reports)}
}

func (r *run) layerAdd(name string, v float64) {
	r.mu.Lock()
	r.layer[name] += v
	r.mu.Unlock()
}

func (r *run) layerSet(name string, v float64) {
	r.mu.Lock()
	r.layer[name] = v
	r.mu.Unlock()
}

func sortedReports(rs []sim.Report) []sim.Report {
	out := append([]sim.Report(nil), rs...)
	sort.Slice(out, func(a, b int) bool {
		if out[a].Pos != out[b].Pos {
			return out[a].Pos < out[b].Pos
		}
		return out[a].State < out[b].State
	})
	return out
}

func sameReports(got, want []sim.Report) bool {
	if len(got) != len(want) {
		return false
	}
	g := sortedReports(got)
	for i := range g {
		if g[i] != want[i] {
			return false
		}
	}
	return true
}

// timedStore wraps the on-disk checkpoint store to time every Save.
type timedStore struct {
	checkpoint.Store
	r *run

	mu     sync.Mutex
	parent int // span that saves nest under
	saves  []float64
	bytes  int64
}

func (s *timedStore) Save(name string, version uint32, payload []byte) error {
	s.mu.Lock()
	parent := s.parent
	s.mu.Unlock()
	h := s.r.begin("checkpoint.save", parent, name)
	start := time.Now()
	err := s.Store.Save(name, version, payload)
	ms := float64(time.Since(start).Nanoseconds()) / 1e6
	s.r.end(h)
	s.mu.Lock()
	s.saves = append(s.saves, ms)
	s.bytes += int64(len(payload))
	s.mu.Unlock()
	return err
}

func (s *timedStore) setParent(h int) {
	s.mu.Lock()
	s.parent = h
	s.mu.Unlock()
}
