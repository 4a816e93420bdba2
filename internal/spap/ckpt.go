// The BaseAP/SpAP phase machine: the package's one executor.
//
// Every entry point drives the same explicit machine — BaseAP mode over
// the hot network, SpAP mode over the cold network batch by batch, the
// guard's whole-network baseline fallback, done. RunBaseAPSpAP and
// RunGuarded run it without a checkpoint store, RunAPCPU borrows its
// BaseAP phase, and the checkpointed variants here add durability. The
// machine's complete dynamic state — engine snapshot,
// intermediate-report list, per-batch cursors, watchdog counters, guard
// ladder position, and the accumulated Result — serializes into one
// checkpoint record. Without a store nothing is encoded. With one, a
// run killed at any point resumes from the newest valid record:
// mid-attempt in BaseAP mode, mid-batch in SpAP mode, or mid-stream in
// the baseline fallback, instead of starting over.
//
// Exactly-once report delivery follows from the prefix property of engine
// snapshots (see internal/sim/snapshot.go): a checkpoint taken before
// processing position P persists exactly the reports for positions < P
// inside Result.Reports, and the engine re-runs deterministically from P,
// so the resumed stream is bit-identical to an uninterrupted run — no
// duplicated and no lost reports across the boundary. Phase transitions
// and batch completions are checkpointed atomically (write-rename in the
// store), so a crash between saves merely repeats work, never corrupts
// state.
//
// A resumed record is validated against the partition and input before
// any of it is used: a payload that decodes cleanly but carries positions
// or state IDs from another run is refused with checkpoint.ErrMismatch.
package spap

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"sparseap/internal/ap"
	"sparseap/internal/automata"
	"sparseap/internal/checkpoint"
	"sparseap/internal/fault"
	"sparseap/internal/hotcold"
	"sparseap/internal/sim"
)

// spapStateVersion versions the serialized phase-machine state. Bump on
// any layout change; Load rejects other versions with ErrMismatch.
const spapStateVersion = 1

// Execution phases of the checkpointed state machine, in ladder order.
const (
	ckPhaseBase     uint8 = iota // BaseAP mode over the hot network
	ckPhaseCold                  // SpAP mode over the cold network, batch by batch
	ckPhaseFallback              // guard's whole-network baseline fallback
	ckPhaseDone                  // finished; the record holds the final result
)

// phaseName renders a phase for ResumeStats.
func phaseName(p uint8) string {
	switch p {
	case ckPhaseBase:
		return "baseap"
	case ckPhaseCold:
		return "spap"
	case ckPhaseFallback:
		return "fallback"
	case ckPhaseDone:
		return "done"
	}
	return fmt.Sprintf("phase%d", p)
}

// ResumeStats records checkpoint/resume bookkeeping of a checkpointed run.
type ResumeStats struct {
	// Resumed reports whether the run continued from a stored checkpoint.
	Resumed bool
	// Phase names the phase the run resumed into ("" when not resumed).
	Phase string
	// Pos is the input position within that phase's stream at resume.
	Pos int64
	// Recovered reports whether the latest checkpoint slot was corrupt
	// and the run fell back to the previous good one.
	Recovered bool
	// Saves counts checkpoints persisted during this call.
	Saves int64
}

// ckState is the complete resumable state of a checkpointed run. Every
// field that influences the remaining execution is here; nothing else is
// consulted on resume (the partition is rebuilt deterministically from K).
type ckState struct {
	phase   uint8
	guarded bool

	// Guard ladder: current partition layers (nil = the caller's
	// partition), guard statistics, and fault counters accumulated from
	// aborted attempts.
	k   []int32
	gs  GuardStats
	acc fault.Stats

	// Watchdog counters of the in-flight BaseAP attempt.
	wdStalls   int64
	wdFirstPos int64
	wdHist     []int64

	// Stream progress of the current phase: next input position and the
	// engine snapshot to resume from (meaningful when pos > 0 or, in the
	// cold phase, when inBatch is set).
	pos     int64
	snap    sim.Snapshot
	inBatch bool

	// BaseAP products.
	inter     []IntermediateReport
	interSeen int64 // generated intermediate reports, including dropped

	// Cold-phase bookkeeping: which batches completed, which one is
	// mid-flight, and its report cursor and partial stats.
	coldDone  []bool
	coldCur   int32
	coldJ     int64
	coldStats batchStats

	res Result
}

// encode serializes the state in field order; decode mirrors it exactly.
func (st *ckState) encode(e *checkpoint.Enc) {
	e.U8(st.phase)
	e.Bool(st.guarded)
	e.I32s(st.k)

	e.I64(int64(st.gs.Attempts))
	e.I64(int64(st.gs.Trips))
	e.I64s(st.gs.TripPos)
	e.I64(st.gs.WastedCycles)
	e.Bool(st.gs.Widened)
	e.Bool(st.gs.FallbackBaseline)
	e.I64(int64(st.gs.BatchFallbacks))
	e.I64(st.gs.FallbackCycles)

	e.I64(st.acc.Flips)
	e.I64(st.acc.DroppedReports)
	e.I64(st.acc.ConfigRetries)

	e.I64(st.wdStalls)
	e.I64(st.wdFirstPos)
	e.I64s(st.wdHist)

	e.I64(st.pos)
	st.snap.Encode(e)
	e.Bool(st.inBatch)

	e.U64(uint64(len(st.inter)))
	for _, r := range st.inter {
		e.I64(r.Pos)
		e.I32(int32(r.Target))
	}
	e.I64(st.interSeen)

	e.U64(uint64(len(st.coldDone)))
	for _, d := range st.coldDone {
		e.Bool(d)
	}
	e.I32(st.coldCur)
	e.I64(st.coldJ)
	e.I64(st.coldStats.cycles)
	e.I64(st.coldStats.stalls)
	e.I64(st.coldStats.refills)

	r := &st.res
	e.I64(int64(r.BaseAPBatches))
	e.I64(int64(r.ColdBatches))
	e.I64(int64(r.SpAPExecutions))
	e.I64(r.IntermediateReports)
	e.I64(r.EnableStalls)
	e.I64(r.QueueRefills)
	e.I64(r.BaseAPCycles)
	e.I64(r.SpAPCycles)
	e.I64(r.SpAPProcessed)
	e.I64s(r.SpAPBatchCycles)
	e.F64(r.JumpRatio)
	e.I64(r.NumReports)
	e.U64(uint64(len(r.Reports)))
	for _, rp := range r.Reports {
		e.I64(rp.Pos)
		e.I32(int32(rp.State))
	}
	e.I64(r.Fault.Flips)
	e.I64(r.Fault.DroppedReports)
	e.I64(r.Fault.ConfigRetries)
}

func (st *ckState) decode(payload []byte) error {
	d := checkpoint.NewDec(payload)
	st.phase = d.U8()
	st.guarded = d.Bool()
	st.k = d.I32s()

	st.gs.Attempts = int(d.I64())
	st.gs.Trips = int(d.I64())
	st.gs.TripPos = d.I64s()
	st.gs.WastedCycles = d.I64()
	st.gs.Widened = d.Bool()
	st.gs.FallbackBaseline = d.Bool()
	st.gs.BatchFallbacks = int(d.I64())
	st.gs.FallbackCycles = d.I64()

	st.acc.Flips = d.I64()
	st.acc.DroppedReports = d.I64()
	st.acc.ConfigRetries = d.I64()

	st.wdStalls = d.I64()
	st.wdFirstPos = d.I64()
	st.wdHist = d.I64s()

	st.pos = d.I64()
	if err := st.snap.Decode(d); err != nil {
		return err
	}
	st.inBatch = d.Bool()

	n := d.Len(12)
	st.inter = st.inter[:0]
	for i := 0; i < n && d.Err() == nil; i++ {
		pos := d.I64()
		tgt := automata.StateID(d.I32())
		st.inter = append(st.inter, IntermediateReport{Pos: pos, Target: tgt})
	}
	st.interSeen = d.I64()

	n = d.Len(1)
	st.coldDone = st.coldDone[:0]
	for i := 0; i < n && d.Err() == nil; i++ {
		st.coldDone = append(st.coldDone, d.Bool())
	}
	st.coldCur = d.I32()
	st.coldJ = d.I64()
	st.coldStats.cycles = d.I64()
	st.coldStats.stalls = d.I64()
	st.coldStats.refills = d.I64()

	r := &st.res
	r.BaseAPBatches = int(d.I64())
	r.ColdBatches = int(d.I64())
	r.SpAPExecutions = int(d.I64())
	r.IntermediateReports = d.I64()
	r.EnableStalls = d.I64()
	r.QueueRefills = d.I64()
	r.BaseAPCycles = d.I64()
	r.SpAPCycles = d.I64()
	r.SpAPProcessed = d.I64()
	r.SpAPBatchCycles = d.I64s()
	r.JumpRatio = d.F64()
	r.NumReports = d.I64()
	n = d.Len(12)
	r.Reports = r.Reports[:0]
	for i := 0; i < n && d.Err() == nil; i++ {
		pos := d.I64()
		s := automata.StateID(d.I32())
		r.Reports = append(r.Reports, sim.Report{Pos: pos, State: s})
	}
	r.Fault.Flips = d.I64()
	r.Fault.DroppedReports = d.I64()
	r.Fault.ConfigRetries = d.I64()
	return d.Done()
}

// ckExec drives one run of the phase machine.
type ckExec struct {
	ctx   context.Context
	input []byte
	cfg   ap.Config
	opts  Options
	g     *Guard // nil for the unguarded executor
	ck    *checkpoint.Runner
	st    *ckState
	cur   *hotcold.Partition
	enc   checkpoint.Enc
	rs    ResumeStats

	// collect keeps final reports in st.res.Reports: the caller asked
	// for them, a guarded run may splice them in a batch fallback, or a
	// live store must persist the report prefix.
	collect bool
}

// capacityError marks a batch-partitioning failure: the network does not
// fit the configured capacity, and the entry points return no Result.
type capacityError struct{ error }

func (e capacityError) Unwrap() error { return e.error }

// newExec prepares a fresh run of p. With g == nil and a nil or disabled
// runner it is the plain BaseAP/SpAP executor.
func newExec(ctx context.Context, p *hotcold.Partition, input []byte, cfg ap.Config, g *Guard, opts Options, ck *checkpoint.Runner) *ckExec {
	st := &ckState{guarded: g != nil, coldCur: -1}
	st.res.JumpRatio = math.NaN()
	if g != nil {
		st.gs.Attempts = 1
	}
	return &ckExec{ctx: ctx, input: input, cfg: cfg, opts: opts, g: g, ck: ck, st: st, cur: p,
		collect: opts.CollectReports || g != nil || ck.Enabled()}
}

// save persists the full state through the runner; without a store it
// returns before encoding anything.
func (x *ckExec) save() error {
	if !x.ck.Enabled() {
		return nil
	}
	x.enc.Reset()
	x.st.encode(&x.enc)
	if err := x.ck.Save(spapStateVersion, x.enc.Bytes()); err != nil {
		return err
	}
	x.rs.Saves++
	return nil
}

// RunBaseAPSpAPCheckpointed is RunBaseAPSpAPContext with durable
// checkpoints through ck: state is captured every Runner.Every processed
// symbols (and at every phase and batch boundary), and a rerun resumes
// from the newest valid checkpoint with exactly-once report delivery. An
// uninterrupted run returns a Result identical to RunBaseAPSpAPContext
// (plus populated Resume bookkeeping).
func RunBaseAPSpAPCheckpointed(ctx context.Context, p *hotcold.Partition, input []byte, cfg ap.Config, opts Options, ck *checkpoint.Runner) (*Result, error) {
	return runCheckpointed(ctx, p, input, cfg, nil, opts, ck)
}

// RunGuardedCheckpointed is RunGuarded with durable checkpoints: the
// guard ladder (attempt count, widened layers, watchdog counters, batch
// fallbacks) is part of the persisted state, so a run killed mid-attempt,
// mid-batch, or mid-fallback resumes exactly where it was — including
// re-entering BaseAP mode on an already-widened partition. Like
// RunGuarded it feeds Options.Calibrate once per call.
func RunGuardedCheckpointed(ctx context.Context, p *hotcold.Partition, input []byte, cfg ap.Config, g Guard, opts Options, ck *checkpoint.Runner) (*Result, error) {
	g = g.withDefaults()
	res, err := runCheckpointed(ctx, p, input, cfg, &g, opts, ck)
	calibrate(opts.Calibrate, res, len(input))
	return res, err
}

func runCheckpointed(ctx context.Context, p *hotcold.Partition, input []byte, cfg ap.Config, g *Guard, opts Options, ck *checkpoint.Runner) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	x := newExec(ctx, p, input, cfg, g, opts, ck)
	st := x.st
	// The pre-flight verdict is a pure function of the caller's partition
	// and the guard, so a resumed run recomputes it instead of reading
	// it from the checkpoint.
	var pf *Preflight
	if g != nil && g.Preflight {
		pf = PreflightPartition(p, *g, cfg.EnablePorts)
	}
	if payload, ver, fellback, err := ck.Load(); err == nil {
		if err := x.resume(payload, ver, fellback); err != nil {
			return nil, err
		}
	} else if !errors.Is(err, checkpoint.ErrNoCheckpoint) {
		return nil, err
	} else if pf != nil {
		x.preflight(pf)
	}
	st.gs.Preflight = pf

	for {
		var err error
		switch st.phase {
		case ckPhaseBase:
			err = x.runBase()
		case ckPhaseCold:
			err = x.runCold()
		case ckPhaseFallback:
			err = x.runFallback()
		default:
			return x.finish(nil)
		}
		if errors.As(err, new(capacityError)) {
			return nil, err
		}
		if err != nil {
			return x.finish(err)
		}
	}
}

// preflight applies the guard's static verdict to a fresh run: Safe
// drops the watchdog (see runBase), sized layers start the first attempt
// on the rebuilt partition, and Hopeless goes straight to the fallback
// without a single BaseAP attempt.
func (x *ckExec) preflight(pf *Preflight) {
	st := x.st
	switch {
	case pf.Hopeless:
		st.gs.Attempts = 0
		st.gs.FallbackBaseline = true
		st.phase = ckPhaseFallback
	case pf.K != nil:
		if np, err := hotcold.Build(x.cur.Net, x.cur.Topo, pf.K, hotcold.Options{}); err == nil {
			x.cur, st.k = np, np.K
			st.gs.Widened = true
		}
	}
}

// resume loads a stored record: version and guard-mode checks, the
// ladder's current partition rebuilt from the persisted layers, and the
// state validated against that partition and the input.
func (x *ckExec) resume(payload []byte, ver uint32, fellback bool) error {
	st := x.st
	if ver != spapStateVersion {
		return fmt.Errorf("%w: spap state version %d, want %d", checkpoint.ErrMismatch, ver, spapStateVersion)
	}
	if err := st.decode(payload); err != nil {
		return err
	}
	if st.guarded != (x.g != nil) {
		return fmt.Errorf("%w: checkpoint is for a %s run", checkpoint.ErrMismatch, map[bool]string{true: "guarded", false: "plain"}[st.guarded])
	}
	if st.k != nil {
		if len(st.k) != x.cur.Net.NumNFAs() {
			return fmt.Errorf("%w: checkpoint has %d partition layers for %d NFAs", checkpoint.ErrMismatch, len(st.k), x.cur.Net.NumNFAs())
		}
		np, err := hotcold.Build(x.cur.Net, x.cur.Topo, st.k, hotcold.Options{})
		if err != nil {
			return fmt.Errorf("spap: rebuilding widened partition: %w", err)
		}
		x.cur = np
	}
	if err := x.validate(); err != nil {
		return fmt.Errorf("%w: spap checkpoint: %v", checkpoint.ErrMismatch, err)
	}
	x.rs = ResumeStats{Resumed: true, Phase: phaseName(st.phase), Pos: st.pos, Recovered: fellback}
	return nil
}

// validate checks every decoded position and state ID the remaining
// execution will index with.
func (x *ckExec) validate() error {
	st, p := x.st, x.cur
	n := int64(len(x.input))
	if st.phase > ckPhaseDone {
		return fmt.Errorf("unknown phase %d", st.phase)
	}
	if st.pos < 0 || st.pos > n {
		return fmt.Errorf("position %d outside the %d-symbol input", st.pos, n)
	}
	for _, r := range st.res.Reports {
		if r.Pos < 0 || r.Pos > n || r.State < 0 || int(r.State) >= p.Net.Len() {
			return fmt.Errorf("final report %+v outside the input or network", r)
		}
	}
	for _, r := range st.inter {
		// A replayed report is stepped at its own position: it must lie
		// strictly inside the input.
		if r.Pos < 0 || r.Pos >= n || r.Target < 0 || int(r.Target) >= len(p.ColdID) || p.ColdID[r.Target] == automata.None {
			return fmt.Errorf("intermediate report %+v is not a cold state inside the input", r)
		}
	}
	if st.phase != ckPhaseCold || p.Cold.Len() == 0 {
		return nil
	}
	coldBatches, err := ap.PartitionNFAs(p.Cold, x.cfg.Capacity)
	if err != nil {
		return nil // runCold reports the capacity error
	}
	if st.coldDone != nil && len(st.coldDone) != len(coldBatches) {
		return fmt.Errorf("%d completed-batch flags for %d cold batches", len(st.coldDone), len(coldBatches))
	}
	if !st.inBatch {
		return nil
	}
	if st.coldCur < 0 || int(st.coldCur) >= len(coldBatches) {
		return fmt.Errorf("in-flight batch %d of %d", st.coldCur, len(coldBatches))
	}
	if routed := routeReports(p, coldBatches, st.inter)[st.coldCur]; st.coldJ < 0 || st.coldJ > int64(len(routed)) {
		return fmt.Errorf("report cursor %d past the batch's %d reports", st.coldJ, len(routed))
	}
	return nil
}

// finish assembles the caller-facing Result from the state machine:
// guarded runs sort the report stream (fallback splicing breaks order),
// fault counters from aborted attempts fold in, and the internal report
// list is trimmed when the caller did not ask for it. The Result and its
// GuardStats are copies, so a caller holding them does not keep the
// machine state (intermediate-report list, snapshot buffers) alive.
func (x *ckExec) finish(runErr error) (*Result, error) {
	st := x.st
	res := st.res
	if x.g != nil {
		gs := st.gs
		res.Guard = &gs
	}
	res.Fault.Add(st.acc)
	// Guarded runs sort the stream whenever the cold phase ran; base-phase
	// and fallback-phase exits leave stream order, which is already
	// (pos, state)-sorted.
	if x.g != nil && (st.phase == ckPhaseCold || st.phase == ckPhaseDone) {
		sortReports(res.Reports)
	}
	rs := x.rs
	res.Resume = &rs
	trimReports(&res, x.opts)
	return finalize(&res, x.cfg), runErr
}

// resetAttempt zeroes all per-attempt state before a widened retry or the
// baseline fallback; ladder state (k, gs, acc) survives.
func (x *ckExec) resetAttempt() {
	st := x.st
	st.res = Result{JumpRatio: math.NaN()}
	st.inter = nil
	st.interSeen = 0
	st.pos = 0
	st.inBatch = false
	st.coldDone = nil
	st.coldCur = -1
	st.coldJ = 0
	st.coldStats = batchStats{}
	st.wdStalls, st.wdFirstPos, st.wdHist = 0, 0, nil
}

// runBase executes the hot network in batches, separating final reports
// from intermediate reports. With a store, the engine snapshot plus the
// intermediate and final report lists are captured every Every symbols,
// so a resumed attempt continues mid-stream; a guarded attempt restores
// its watchdog counters too, keeping trip decisions identical to an
// uninterrupted run. On abort BaseAPCycles reflects the symbols actually
// processed.
func (x *ckExec) runBase() error {
	st, res := x.st, &x.st.res
	hotBatches, err := ap.PartitionNFAs(x.cur.Hot, x.cfg.Capacity)
	if err != nil {
		return capacityError{fmt.Errorf("spap: hot network: %w", err)}
	}
	res.BaseAPBatches = len(hotBatches)
	res.JumpRatio = math.NaN()
	inj := x.opts.Faults
	if st.pos == 0 {
		if err := loadConfigs(inj, &res.Fault, 0, len(hotBatches)); err != nil {
			res.BaseAPCycles = 0
			return err
		}
	}
	var wd *watchdog
	// A Safe pre-flight verdict proves the watchdog can never trip; skip
	// its bookkeeping entirely.
	if x.g != nil && (st.gs.Preflight == nil || !st.gs.Preflight.Safe) {
		wd = &watchdog{g: *x.g, ports: x.cfg.EnablePorts,
			stalls: st.wdStalls, firstPos: st.wdFirstPos, hist: st.wdHist}
	}
	eng := sim.AcquireEngine(x.cur.Hot, sim.Options{})
	defer eng.Release()
	if st.pos > 0 {
		if err := eng.Restore(&st.snap); err != nil {
			return err
		}
	}
	eng.OnReport = func(pos int64, s automata.StateID) {
		if orig := x.cur.HotOrig[s]; orig != automata.None {
			res.NumReports++
			if x.collect {
				res.Reports = append(res.Reports, sim.Report{Pos: pos, State: orig})
			}
			return
		}
		idx := st.interSeen
		st.interSeen++
		if inj.DropReport(idx) {
			res.Fault.DroppedReports++
			return
		}
		st.inter = append(st.inter, IntermediateReport{Pos: pos, Target: x.cur.Intermediate[s]})
	}
	active := inj.Active()
	abort := func(processed int64) {
		res.BaseAPCycles = int64(len(hotBatches)) * processed
		res.IntermediateReports = int64(len(st.inter))
	}
	n := int64(len(x.input))
	for i := st.pos; i < n; i++ {
		if x.ck.Due(i) {
			st.pos = i
			eng.Snapshot(&st.snap, i)
			if wd != nil {
				st.wdStalls, st.wdFirstPos, st.wdHist = wd.stalls, wd.firstPos, wd.hist
			}
			if serr := x.save(); serr != nil {
				abort(i)
				return serr
			}
		}
		if cerr := x.ck.Check(i); cerr != nil {
			abort(i)
			return cerr
		}
		if i&(cancelCheckInterval-1) == 0 && cancelled(x.ctx) {
			abort(i)
			return x.ctx.Err()
		}
		if active {
			if s, ok := inj.FlipAt(i, x.cur.Hot.Len()); ok {
				eng.ToggleState(s)
				res.Fault.Flips++
			}
		}
		before := len(st.inter)
		eng.Step(i, x.input[i])
		if wd != nil {
			wd.observe(i+1, len(st.inter)-before, int64(len(st.inter)))
			if wd.isTripped() {
				return x.handleTrip(wd, i+1)
			}
		}
	}
	res.IntermediateReports = int64(len(st.inter))
	res.BaseAPCycles = int64(len(hotBatches)) * n
	// The engine emits reports in cycle order (and ascending state order
	// within a cycle), which Algorithm 1 permits: all same-position reports
	// are enabled together. The stable sort only guards the queue model.
	sort.SliceStable(st.inter, func(a, b int) bool { return st.inter[a].Pos < st.inter[b].Pos })
	st.phase = ckPhaseCold
	st.pos = 0
	st.inBatch = false
	st.coldCur = -1
	st.wdStalls, st.wdFirstPos, st.wdHist = 0, 0, nil
	return x.save()
}

// handleTrip advances the guard ladder after a watchdog trip: widened
// retry when allowed, baseline fallback otherwise. The new ladder
// position is checkpointed immediately, so a crash right after a trip
// resumes into the correct next stage without repeating the aborted
// attempt.
func (x *ckExec) handleTrip(wd *watchdog, processed int64) error {
	st := x.st
	st.gs.Trips++
	st.gs.TripPos = append(st.gs.TripPos, wd.pos)
	st.gs.WastedCycles += int64(st.res.BaseAPBatches) * processed
	st.acc.Add(st.res.Fault)
	if st.gs.Attempts-1 < x.g.MaxRetries && !wd.hopeless() {
		if np, ok := widenPartition(x.cur, x.g.WidenFactor); ok {
			st.gs.Widened = true
			st.gs.Attempts++
			x.cur = np
			st.k = np.K
			x.resetAttempt()
			return x.save()
		}
	}
	st.gs.FallbackBaseline = true
	st.phase = ckPhaseFallback
	x.resetAttempt()
	return x.save()
}

// runCold executes the cold network in batches under Algorithm 1, each
// batch driven by the intermediate reports routed to it. A guarded run
// first pre-flights each batch: one whose report list predicts more
// stalls than StallBudget × len(input) is not executed in SpAP mode; its
// NFAs run un-split as baseline batches instead. Cold batches load
// lazily: a batch that receives no reports is never configured.
//
// Under checkpoints batch completion is the durability unit: coldDone
// marks finished batches, and the in-flight batch checkpoints its engine
// snapshot plus report cursor every Every cycles. Per-batch baseline
// fallbacks are atomic between saves — a crash inside one repeats just
// that batch.
func (x *ckExec) runCold() error {
	st, res := x.st, &x.st.res
	if x.cur.Cold.Len() == 0 {
		st.phase = ckPhaseDone
		return x.save()
	}
	coldBatches, err := ap.PartitionNFAs(x.cur.Cold, x.cfg.Capacity)
	if err != nil {
		return capacityError{fmt.Errorf("spap: cold network: %w", err)}
	}
	res.ColdBatches = len(coldBatches)
	if len(st.inter) == 0 {
		st.phase = ckPhaseDone
		return x.save()
	}
	if len(st.coldDone) != len(coldBatches) {
		st.coldDone = make([]bool, len(coldBatches))
	}
	perBatch := routeReports(x.cur, coldBatches, st.inter)
	var stallCap int64
	if x.g != nil {
		stallCap = int64(x.g.StallBudget * float64(len(x.input)))
	}
	for bi, reports := range perBatch {
		if len(reports) == 0 || st.coldDone[bi] {
			continue
		}
		if cancelled(x.ctx) {
			return x.ctx.Err()
		}
		resuming := st.inBatch && int(st.coldCur) == bi
		if !resuming {
			// The pre-flight is deterministic over the routed list, so a
			// batch that started SpAP execution before a crash passed it
			// and must not re-run it after resume.
			if x.g != nil && predictStalls(reports, x.cfg.EnablePorts) > stallCap {
				if err := batchFallback(x.ctx, x.cur, x.input, x.cfg, x.opts, res, coldBatches[bi], &st.gs); err != nil {
					return err
				}
				st.coldDone[bi] = true
				if err := x.save(); err != nil {
					return err
				}
				continue
			}
			if err := loadConfigs(x.opts.Faults, &res.Fault, res.BaseAPBatches+bi, 1); err != nil {
				return err
			}
			res.SpAPExecutions++
			st.coldCur = int32(bi)
			st.coldJ = 0
			st.coldStats = batchStats{}
			st.pos = 0
			st.inBatch = true
		}
		if err := x.runSpAPBatch(bi, reports, resuming); err != nil {
			return err
		}
		st.coldDone[bi] = true
		st.inBatch = false
		st.pos = 0
		st.coldJ = 0
		st.coldStats = batchStats{}
		if err := x.save(); err != nil {
			return err
		}
	}
	if res.SpAPExecutions > 0 {
		denom := float64(res.SpAPExecutions) * float64(len(x.input))
		res.JumpRatio = 1 - float64(res.SpAPProcessed)/denom
	}
	st.phase = ckPhaseDone
	return x.save()
}

// runSpAPBatch is Algorithm 1. The whole cold network is simulated, driven
// only by this batch's reports; because NFAs are independent, states
// outside the batch are never enabled, so the result is identical to
// simulating the batch alone. Mid-batch checkpoints count executed cycles
// (not input positions — jumps skip those) and persist the engine
// snapshot, the report-list cursor, and the partial batch stats. Stats
// fold into the Result only at completion (or into the in-memory partial
// result on abort), so a mid-batch checkpoint never double-counts.
func (x *ckExec) runSpAPBatch(bi int, reports []IntermediateReport, resuming bool) error {
	st, res := x.st, &x.st.res
	eng := sim.AcquireEngine(x.cur.Cold, sim.Options{})
	defer eng.Release()
	if resuming {
		if err := eng.Restore(&st.snap); err != nil {
			return err
		}
	}
	eng.OnReport = func(pos int64, s automata.StateID) {
		res.NumReports++
		if x.collect {
			res.Reports = append(res.Reports, sim.Report{Pos: pos, State: x.cur.ColdOrig[s]})
		}
	}
	inj := x.opts.Faults
	active := inj.Active()
	bst := st.coldStats
	n := int64(len(x.input))
	i := st.pos
	j := int(st.coldJ)
	fold := func() {
		c := bst
		c.cycles += c.stalls
		res.SpAPBatchCycles = append(res.SpAPBatchCycles, c.cycles)
		res.SpAPCycles += c.cycles
		res.SpAPProcessed += c.cycles - c.stalls
		res.EnableStalls += c.stalls
		res.QueueRefills += c.refills
	}
	for i < n {
		if x.ck.Due(bst.cycles) {
			st.pos, st.coldJ, st.coldStats = i, int64(j), bst
			eng.Snapshot(&st.snap, i)
			if serr := x.save(); serr != nil {
				fold()
				return serr
			}
		}
		if cerr := x.ck.Check(i); cerr != nil {
			fold()
			return cerr
		}
		if bst.cycles&(cancelCheckInterval-1) == 0 && cancelled(x.ctx) {
			fold()
			return x.ctx.Err()
		}
		if eng.FrontierEmpty() {
			if j >= len(reports) {
				break
			}
			i = reports[j].Pos // jump operation
		}
		if active {
			if s, ok := inj.FlipAt(i, x.cur.Cold.Len()); ok {
				eng.ToggleState(s)
				res.Fault.Flips++
			}
		}
		// Enable every report generated at this position. EnablePorts
		// enables overlap with one symbol cycle; each additional full
		// port-width of simultaneous reports stalls input processing for
		// one cycle (Section V-B describes the 1-port design).
		enabled := 0
		for j < len(reports) && reports[j].Pos == i {
			eng.EnableState(x.cur.ColdID[reports[j].Target])
			if j%x.cfg.ReportQueueLen == x.cfg.ReportQueueLen-1 {
				bst.refills++
			}
			j++
			enabled++
		}
		if enabled > x.cfg.EnablePorts {
			bst.stalls += int64((enabled+x.cfg.EnablePorts-1)/x.cfg.EnablePorts - 1)
		}
		eng.Step(i, x.input[i])
		bst.cycles++
		i++
	}
	fold()
	return nil
}

// runFallback runs the whole original network as plain baseline batches,
// snapshotted every Every symbols under a store; the entire cost lands in
// GuardStats.FallbackCycles (plus the already-recorded WastedCycles). It
// is assigned (not accumulated) from symbols processed, so resumes cannot
// double-count it.
func (x *ckExec) runFallback() error {
	st, res := x.st, &x.st.res
	batches, err := ap.PartitionNFAs(x.cur.Net, x.cfg.Capacity)
	if err != nil {
		return capacityError{err}
	}
	if st.pos == 0 {
		if err := loadConfigs(x.opts.Faults, &res.Fault, 0, len(batches)); err != nil {
			return err
		}
	}
	eng := sim.AcquireEngine(x.cur.Net, sim.Options{})
	defer eng.Release()
	if st.pos > 0 {
		if err := eng.Restore(&st.snap); err != nil {
			return err
		}
	}
	eng.OnReport = func(pos int64, s automata.StateID) {
		res.NumReports++
		res.Reports = append(res.Reports, sim.Report{Pos: pos, State: s})
	}
	n := int64(len(x.input))
	for i := st.pos; i < n; i++ {
		if x.ck.Due(i) {
			st.pos = i
			eng.Snapshot(&st.snap, i)
			if serr := x.save(); serr != nil {
				st.gs.FallbackCycles = int64(len(batches)) * i
				return serr
			}
		}
		if cerr := x.ck.Check(i); cerr != nil {
			st.gs.FallbackCycles = int64(len(batches)) * i
			return cerr
		}
		if i&(cancelCheckInterval-1) == 0 && cancelled(x.ctx) {
			st.gs.FallbackCycles = int64(len(batches)) * i
			return x.ctx.Err()
		}
		eng.Step(i, x.input[i])
	}
	st.gs.FallbackCycles = int64(len(batches)) * n
	st.phase = ckPhaseDone
	st.pos = 0
	return x.save()
}
