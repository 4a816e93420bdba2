package spap

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"sparseap/internal/ap"
	"sparseap/internal/automata"
	"sparseap/internal/checkpoint"
	"sparseap/internal/fault"
	"sparseap/internal/hotcold"
	"sparseap/internal/hotness"
	"sparseap/internal/regexc"
	"sparseap/internal/sim"
)

// chainApp builds a long stream over the "abcde" chain pattern profiled
// so the deep states land cold: a workload with a substantial SpAP phase.
func chainApp(t testing.TB, n int) (p *hotcold.Partition, input []byte) {
	t.Helper()
	net, err := regexc.CompileAll([]string{"abcde"}, regexc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	unit := []byte("ab abcde xx abcde ")
	input = bytes.Repeat(unit, (n+len(unit)-1)/len(unit))[:n]
	return buildPartition(t, net, input[:2]), input
}

// ckResultsEqual asserts a (resumed) checkpointed result is identical to
// an uninterrupted run's, field by field (Resume bookkeeping excluded by
// design).
func ckResultsEqual(t *testing.T, tag string, got, want *Result) {
	t.Helper()
	if got.BaseAPBatches != want.BaseAPBatches || got.ColdBatches != want.ColdBatches ||
		got.SpAPExecutions != want.SpAPExecutions ||
		got.IntermediateReports != want.IntermediateReports ||
		got.EnableStalls != want.EnableStalls || got.QueueRefills != want.QueueRefills ||
		got.BaseAPCycles != want.BaseAPCycles || got.SpAPCycles != want.SpAPCycles ||
		got.SpAPProcessed != want.SpAPProcessed || got.TotalCycles != want.TotalCycles ||
		got.NumReports != want.NumReports {
		t.Fatalf("%s: counters diverged:\ngot  %+v\nwant %+v", tag, got, want)
	}
	if len(got.SpAPBatchCycles) != len(want.SpAPBatchCycles) {
		t.Fatalf("%s: SpAPBatchCycles %v vs %v", tag, got.SpAPBatchCycles, want.SpAPBatchCycles)
	}
	for i := range got.SpAPBatchCycles {
		if got.SpAPBatchCycles[i] != want.SpAPBatchCycles[i] {
			t.Fatalf("%s: SpAPBatchCycles %v vs %v", tag, got.SpAPBatchCycles, want.SpAPBatchCycles)
		}
	}
	if !(math.IsNaN(got.JumpRatio) && math.IsNaN(want.JumpRatio)) && got.JumpRatio != want.JumpRatio {
		t.Fatalf("%s: JumpRatio %v vs %v", tag, got.JumpRatio, want.JumpRatio)
	}
	if len(got.Reports) != len(want.Reports) {
		t.Fatalf("%s: %d reports vs %d", tag, len(got.Reports), len(want.Reports))
	}
	for i := range got.Reports {
		if got.Reports[i] != want.Reports[i] {
			t.Fatalf("%s: report %d = %+v, want %+v (order must be bit-identical)",
				tag, i, got.Reports[i], want.Reports[i])
		}
	}
	if got.Fault != want.Fault {
		t.Fatalf("%s: fault stats %+v vs %+v", tag, got.Fault, want.Fault)
	}
	if (got.Guard == nil) != (want.Guard == nil) {
		t.Fatalf("%s: guard presence %v vs %v", tag, got.Guard != nil, want.Guard != nil)
	}
	if got.Guard != nil {
		a, b := got.Guard, want.Guard
		if a.Attempts != b.Attempts || a.Trips != b.Trips || a.WastedCycles != b.WastedCycles ||
			a.Widened != b.Widened || a.FallbackBaseline != b.FallbackBaseline ||
			a.BatchFallbacks != b.BatchFallbacks || a.FallbackCycles != b.FallbackCycles ||
			len(a.TripPos) != len(b.TripPos) {
			t.Fatalf("%s: guard stats:\ngot  %+v\nwant %+v", tag, a, b)
		}
		for i := range a.TripPos {
			if a.TripPos[i] != b.TripPos[i] {
				t.Fatalf("%s: TripPos %v vs %v", tag, a.TripPos, b.TripPos)
			}
		}
	}
}

// killSched injects crashes at global chaos-hook-poll thresholds; the
// counter spans resumes, so every threshold fires exactly once.
type killSched struct {
	checks int64
	at     []int64
	next   int
}

func (k *killSched) hook(pos int64) bool {
	k.checks++
	if k.next < len(k.at) && k.checks >= k.at[k.next] {
		k.next++
		return true
	}
	return false
}

// seededKills distributes nKills thresholds across the poll volume of an
// uninterrupted run of `probe`, so crashes land in every phase the
// workload reaches (early BaseAP through the tail of the cold phase).
func seededKills(t *testing.T, nKills int, probe func(ck *checkpoint.Runner) error) *killSched {
	t.Helper()
	count := &killSched{}
	if err := probe(&checkpoint.Runner{CrashAt: count.hook}); err != nil {
		t.Fatalf("probe run: %v", err)
	}
	if count.checks < int64(nKills) {
		t.Fatalf("workload too small: %d chaos polls", count.checks)
	}
	s := &killSched{}
	for i := 1; i <= nKills; i++ {
		s.at = append(s.at, count.checks*int64(2*i-1)/int64(2*nKills))
	}
	return s
}

// runUntilDone drives a checkpointed run through its kill schedule,
// re-invoking after each injected crash until it completes. It returns
// the final result and the phases the run resumed into.
func runUntilDone(t *testing.T, sched *killSched, store checkpoint.Store, every int64,
	run func(ck *checkpoint.Runner) (*Result, error)) (*Result, []string) {
	t.Helper()
	var phases []string
	for attempt := 0; ; attempt++ {
		if attempt > len(sched.at)+2 {
			t.Fatalf("kill/resume loop did not converge after %d attempts", attempt)
		}
		ck := &checkpoint.Runner{Store: store, Name: "spap", Every: every, CrashAt: sched.hook}
		res, err := run(ck)
		if res != nil && res.Resume != nil && res.Resume.Resumed {
			phases = append(phases, res.Resume.Phase)
		}
		if err == nil {
			if sched.next != len(sched.at) {
				t.Fatalf("only %d of %d kill points fired", sched.next, len(sched.at))
			}
			return res, phases
		}
		if !errors.Is(err, checkpoint.ErrCrashInjected) {
			t.Fatalf("attempt %d: %v", attempt, err)
		}
	}
}

// counters renders the cycle, stall, refill and jump accounting of a run
// (plus the guard ladder, when present) for comparison with pinned
// values. The pins were recorded from the separate plain, guarded and
// checkpointed executors the package had before they merged into one
// phase machine, so they hold every entry point to the old behaviour.
func counters(r *Result) string {
	s := fmt.Sprintf("base=%d spap=%d processed=%d total=%d stalls=%d refills=%d execs=%d/%d/%d im=%d reports=%d jump=%.6f",
		r.BaseAPCycles, r.SpAPCycles, r.SpAPProcessed, r.TotalCycles, r.EnableStalls, r.QueueRefills,
		r.BaseAPBatches, r.ColdBatches, r.SpAPExecutions, r.IntermediateReports, r.NumReports, r.JumpRatio)
	if g := r.Guard; g != nil {
		s += fmt.Sprintf(" guard=%d/%d/%v/%v/%d wasted=%d fallback=%d trippos=%v",
			g.Attempts, g.Trips, g.Widened, g.FallbackBaseline, g.BatchFallbacks,
			g.WastedCycles, g.FallbackCycles, g.TripPos)
	}
	return s
}

// checkOracle holds one run to both references: its report multiset must
// equal the baseline simulation of the whole network, and its counters
// must equal the pinned ones. Runs without CollectReports are checked on
// counters alone.
func checkOracle(t *testing.T, tag string, res *Result, err error, p *hotcold.Partition, input []byte, collect bool, pin string) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	if got := counters(res); got != pin {
		t.Fatalf("%s: counters diverge from the pinned values:\ngot  %s\nwant %s", tag, got, pin)
	}
	if !collect {
		if res.Reports != nil {
			t.Fatalf("%s: %d reports returned without CollectReports", tag, len(res.Reports))
		}
		return
	}
	if base := sim.Run(p.Net, input, sim.Options{CollectReports: true}); !reportsEqual(base.Reports, res.Reports) {
		t.Fatalf("%s: %d reports, baseline simulation has %d", tag, len(res.Reports), len(base.Reports))
	}
}

// unguardedEntries runs every unguarded entry point over the same
// partition; the checkpointed one with a disabled runner.
func unguardedEntries(ctx context.Context) map[string]func(*hotcold.Partition, []byte, ap.Config, Options) (*Result, error) {
	return map[string]func(*hotcold.Partition, []byte, ap.Config, Options) (*Result, error){
		"RunBaseAPSpAP": RunBaseAPSpAP,
		"RunBaseAPSpAPContext": func(p *hotcold.Partition, in []byte, cfg ap.Config, o Options) (*Result, error) {
			return RunBaseAPSpAPContext(ctx, p, in, cfg, o)
		},
		"RunBaseAPSpAPCheckpointed": func(p *hotcold.Partition, in []byte, cfg ap.Config, o Options) (*Result, error) {
			return RunBaseAPSpAPCheckpointed(ctx, p, in, cfg, o, nil)
		},
	}
}

const chainPin = "base=2048 spap=454 processed=454 total=2502 stalls=0 refills=1 execs=1/1/1 im=227 reports=227 jump=0.778320"

func TestCheckpointedDisabledMatchesPlain(t *testing.T) {
	ctx := context.Background()
	p, input := chainApp(t, 2048)
	cfg := cfgWithCapacity(100)
	for name, run := range unguardedEntries(ctx) {
		for _, collect := range []bool{true, false} {
			tag := fmt.Sprintf("%s/collect=%v", name, collect)
			res, err := run(p, input, cfg, Options{CollectReports: collect})
			checkOracle(t, tag, res, err, p, input, collect, chainPin)
			if res.Guard != nil {
				t.Fatalf("%s: unguarded run carries guard stats", tag)
			}
			if ck := name == "RunBaseAPSpAPCheckpointed"; ck != (res.Resume != nil) {
				t.Fatalf("%s: Resume = %+v", tag, res.Resume)
			} else if ck && (res.Resume.Resumed || res.Resume.Saves != 0) {
				t.Fatalf("%s: disabled-runner Resume = %+v", tag, res.Resume)
			}
		}
	}
	for _, collect := range []bool{true, false} {
		res, err := RunAPCPU(p, input, cfg, DefaultCPUModel(), Options{CollectReports: collect})
		checkOracle(t, fmt.Sprintf("RunAPCPU/collect=%v", collect), res, err, p, input, collect,
			"base=2048 spap=0 processed=0 total=2048 stalls=0 refills=0 execs=1/0/0 im=227 reports=227 jump=NaN")
		if res.CPUTimeNS != 590200 || res.Resume != nil {
			t.Fatalf("RunAPCPU: CPU time %v (want 590200), Resume %+v", res.CPUTimeNS, res.Resume)
		}
	}

	// Property sweep: random applications and inputs. Every entry point
	// must reproduce the baseline report multiset, and the sweep's summed
	// counters must match the pinned sums with and without CollectReports.
	for name, run := range unguardedEntries(ctx) {
		for _, collect := range []bool{true, false} {
			r := rand.New(rand.NewSource(4099))
			var sum [8]int64
			runs := 0
			for trial := 0; trial < 40; trial++ {
				net, in := randomApp(r)
				if len(in) < 4 {
					continue
				}
				pp, err := hotcold.BuildFromProfile(net, in[:len(in)/2], hotcold.Options{})
				if err != nil {
					continue // unprofilable app; equivalence is vacuous
				}
				res, err := run(pp, in, cfgWithCapacity(5+r.Intn(60)), Options{CollectReports: collect})
				if err != nil {
					continue // a hot fragment exceeds the drawn capacity
				}
				if base := sim.Run(net, in, sim.Options{CollectReports: true}); collect && !reportsEqual(base.Reports, res.Reports) {
					t.Fatalf("%s trial %d: reports differ from the baseline simulation", name, trial)
				}
				runs++
				for i, v := range []int64{res.BaseAPCycles, res.SpAPCycles, res.SpAPProcessed, res.TotalCycles,
					res.EnableStalls, res.QueueRefills, int64(res.SpAPExecutions), res.NumReports} {
					sum[i] += v
				}
			}
			if got, want := fmt.Sprint(runs, sum), "38 [3409 4 4 3413 0 0 1 411]"; got != want {
				t.Fatalf("%s/collect=%v: sweep sums %s, pinned %s", name, collect, got, want)
			}
		}
	}
}

func TestCheckpointedGuardedLadderMatchesPlain(t *testing.T) {
	ctx := context.Background()
	perBatch := func(t *testing.T) (*hotcold.Partition, []byte) {
		net, err := regexc.CompileAll([]string{"ab", "a[bc]"}, regexc.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return buildPartition(t, net, []byte("XX")), []byte("aXab ab ac")
	}
	cases := []struct {
		name  string
		g     Guard
		build func(*testing.T) (*hotcold.Partition, []byte)
		pin   string
	}{
		{"healthy", Guard{}, func(t *testing.T) (*hotcold.Partition, []byte) { return chainApp(t, 2048) },
			chainPin + " guard=1/0/false/false/0 wasted=0 fallback=0 trippos=[]"},
		{"widen-retry", Guard{MinReports: 64, HopelessFactor: 1000},
			func(t *testing.T) (*hotcold.Partition, []byte) { return buildStorm(t, 4, 16, 4096) },
			"base=4096 spap=0 processed=0 total=4113 stalls=0 refills=0 execs=1/0/0 im=0 reports=16380 jump=NaN guard=2/1/true/false/0 wasted=17 fallback=0 trippos=[17]"},
		{"hopeless-fallback", Guard{MinReports: 64},
			func(t *testing.T) (*hotcold.Partition, []byte) { return buildStorm(t, 4, 16, 4096) },
			"base=0 spap=0 processed=0 total=4113 stalls=0 refills=0 execs=0/0/0 im=0 reports=16380 jump=NaN guard=1/1/false/true/0 wasted=17 fallback=4096 trippos=[17]"},
		{"batch-fallback", Guard{ReportBudget: 100, StallBudget: 1e-9, MinReports: 1 << 40}, perBatch,
			"base=10 spap=0 processed=0 total=20 stalls=0 refills=0 execs=1/1/0 im=5 reports=5 jump=NaN guard=1/0/false/false/1 wasted=0 fallback=10 trippos=[]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, input := tc.build(t)
			cfg := cfgWithCapacity(100)
			for _, collect := range []bool{true, false} {
				opts := Options{CollectReports: collect}
				res, err := RunGuarded(ctx, p, input, cfg, tc.g, opts)
				checkOracle(t, fmt.Sprintf("RunGuarded/collect=%v", collect), res, err, p, input, collect, tc.pin)
				if res.Resume != nil {
					t.Fatalf("RunGuarded carries Resume %+v", res.Resume)
				}
				res, err = RunGuardedCheckpointed(ctx, p, input, cfg, tc.g, opts, nil)
				checkOracle(t, fmt.Sprintf("RunGuardedCheckpointed/collect=%v", collect), res, err, p, input, collect, tc.pin)
			}
		})
	}
}

func TestCheckpointedUninterruptedWithStoreMatchesPlain(t *testing.T) {
	ctx := context.Background()
	p, input := chainApp(t, 2048)
	cfg := cfgWithCapacity(100)
	for _, collect := range []bool{true, false} {
		opts := Options{CollectReports: collect}
		store, err := checkpoint.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		ck := &checkpoint.Runner{Store: store, Name: "spap", Every: 64}
		got, err := RunBaseAPSpAPCheckpointed(ctx, p, input, cfg, opts, ck)
		checkOracle(t, fmt.Sprintf("with-store/collect=%v", collect), got, err, p, input, collect, chainPin)
		if got.Resume.Saves == 0 {
			t.Fatal("expected periodic saves with an enabled store")
		}
		// A second invocation short-circuits on the done-phase record.
		again, err := RunBaseAPSpAPCheckpointed(ctx, p, input, cfg, opts, ck)
		checkOracle(t, fmt.Sprintf("done-replay/collect=%v", collect), again, err, p, input, collect, chainPin)
		if !again.Resume.Resumed || again.Resume.Phase != "done" {
			t.Fatalf("done replay Resume = %+v", again.Resume)
		}
	}
}

func TestCheckpointedCrashResumeUnguarded(t *testing.T) {
	ctx := context.Background()
	p, input := chainApp(t, 4096)
	cfg, opts := cfgWithCapacity(100), Options{CollectReports: true}
	want, err := RunBaseAPSpAP(p, input, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	sched := seededKills(t, 5, func(ck *checkpoint.Runner) error {
		_, err := RunBaseAPSpAPCheckpointed(ctx, p, input, cfg, opts, ck)
		return err
	})
	store, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	got, phases := runUntilDone(t, sched, store, 64, func(ck *checkpoint.Runner) (*Result, error) {
		return RunBaseAPSpAPCheckpointed(ctx, p, input, cfg, opts, ck)
	})
	ckResultsEqual(t, "crash-resume", got, want)
	seen := map[string]bool{}
	for _, ph := range phases {
		seen[ph] = true
	}
	if !seen["baseap"] || !seen["spap"] {
		t.Fatalf("kill points did not span both phases: resumed into %v", phases)
	}
}

func TestCheckpointedCrashResumeGuardedWiden(t *testing.T) {
	ctx := context.Background()
	p, input := buildStorm(t, 4, 16, 4096)
	g := Guard{MinReports: 64, HopelessFactor: 1000}
	want, err := RunGuarded(ctx, p, input, cfgWithCapacity(100), g, Options{CollectReports: true})
	if err != nil {
		t.Fatal(err)
	}
	sched := seededKills(t, 5, func(ck *checkpoint.Runner) error {
		_, err := RunGuardedCheckpointed(ctx, p, input, cfgWithCapacity(100), g, Options{CollectReports: true}, ck)
		return err
	})
	store, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	got, _ := runUntilDone(t, sched, store, 64, func(ck *checkpoint.Runner) (*Result, error) {
		return RunGuardedCheckpointed(ctx, p, input, cfgWithCapacity(100), g, Options{CollectReports: true}, ck)
	})
	ckResultsEqual(t, "guarded-widen", got, want)
	if got.Guard == nil || !got.Guard.Widened || got.Guard.Attempts != 2 {
		t.Fatalf("widen ladder lost across resumes: %+v", got.Guard)
	}
}

func TestCheckpointedCrashResumeGuardedFallback(t *testing.T) {
	ctx := context.Background()
	p, input := buildStorm(t, 4, 16, 4096)
	g := Guard{MinReports: 64} // hopeless storm: falls back to baseline
	want, err := RunGuarded(ctx, p, input, cfgWithCapacity(100), g, Options{CollectReports: true})
	if err != nil {
		t.Fatal(err)
	}
	sched := seededKills(t, 5, func(ck *checkpoint.Runner) error {
		_, err := RunGuardedCheckpointed(ctx, p, input, cfgWithCapacity(100), g, Options{CollectReports: true}, ck)
		return err
	})
	store, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	got, phases := runUntilDone(t, sched, store, 64, func(ck *checkpoint.Runner) (*Result, error) {
		return RunGuardedCheckpointed(ctx, p, input, cfgWithCapacity(100), g, Options{CollectReports: true}, ck)
	})
	ckResultsEqual(t, "guarded-fallback", got, want)
	if got.Guard == nil || !got.Guard.FallbackBaseline {
		t.Fatalf("fallback ladder lost across resumes: %+v", got.Guard)
	}
	seen := map[string]bool{}
	for _, ph := range phases {
		seen[ph] = true
	}
	if !seen["fallback"] {
		t.Fatalf("no kill point landed in the fallback phase: resumed into %v", phases)
	}
}

func TestCheckpointedFaultPlanCrashResume(t *testing.T) {
	ctx := context.Background()
	p, input := chainApp(t, 4096)
	inj := fault.New(fault.Plan{Seed: 3, EnableFlipRate: 0.002, ReportDropRate: 0.1})
	cfg := cfgWithCapacity(100)
	opts := Options{CollectReports: true, Faults: inj}
	want, err := RunBaseAPSpAP(p, input, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	sched := seededKills(t, 5, func(ck *checkpoint.Runner) error {
		_, err := RunBaseAPSpAPCheckpointed(ctx, p, input, cfg, opts, ck)
		return err
	})
	store, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	got, _ := runUntilDone(t, sched, store, 64, func(ck *checkpoint.Runner) (*Result, error) {
		return RunBaseAPSpAPCheckpointed(ctx, p, input, cfg, opts, ck)
	})
	// The fault plan is hash-seeded by position, so the interrupted run
	// replays the exact same flips and drops as the uninterrupted one.
	ckResultsEqual(t, "faulted", got, want)
	if got.Fault.Flips == 0 && got.Fault.DroppedReports == 0 {
		t.Fatal("fault plan never fired; test is vacuous")
	}
}

func TestCheckpointedGuardModeMismatch(t *testing.T) {
	ctx := context.Background()
	p, input := chainApp(t, 2048)
	store, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sched := &killSched{at: []int64{400}}
	ck := &checkpoint.Runner{Store: store, Name: "spap", Every: 64, CrashAt: sched.hook}
	if _, err := RunBaseAPSpAPCheckpointed(ctx, p, input, cfgWithCapacity(100), Options{}, ck); !errors.Is(err, checkpoint.ErrCrashInjected) {
		t.Fatalf("expected injected crash, got %v", err)
	}
	// Resuming a plain run through the guarded entry point must refuse.
	ck2 := &checkpoint.Runner{Store: store, Name: "spap", Every: 64}
	if _, err := RunGuardedCheckpointed(ctx, p, input, cfgWithCapacity(100), Guard{}, Options{}, ck2); !errors.Is(err, checkpoint.ErrMismatch) {
		t.Fatalf("guarded resume of a plain checkpoint: err = %v, want ErrMismatch", err)
	}
}

func TestCheckpointedStateVersionMismatch(t *testing.T) {
	ctx := context.Background()
	p, input := chainApp(t, 512)
	store, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save("spap", spapStateVersion+1, []byte("future")); err != nil {
		t.Fatal(err)
	}
	ck := &checkpoint.Runner{Store: store, Name: "spap", Every: 64}
	if _, err := RunBaseAPSpAPCheckpointed(ctx, p, input, cfgWithCapacity(100), Options{}, ck); !errors.Is(err, checkpoint.ErrMismatch) {
		t.Fatalf("future-version checkpoint: err = %v, want ErrMismatch", err)
	}
}

func TestCheckpointedPreflightParity(t *testing.T) {
	// The certified-hopeless deep storm: with Guard.Preflight both guarded
	// entry points must skip BaseAP mode and fall back to baseline at once.
	ctx := context.Background()
	p, input := buildDeepStorm(t, 4, 16, 3, 4096)
	g := Guard{Preflight: true, MinReports: 64}
	cfg := cfgWithCapacity(100)
	run := func(ck bool) (*Result, *hotness.Calibrator) {
		cal := &hotness.Calibrator{}
		opts := Options{CollectReports: true, Calibrate: cal}
		var res *Result
		var err error
		if ck {
			res, err = RunGuardedCheckpointed(ctx, p, input, cfg, g, opts, nil)
		} else {
			res, err = RunGuarded(ctx, p, input, cfg, g, opts)
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, seen := cal.Density(); seen != 1 {
			t.Fatalf("checkpointed=%v: calibrator saw %d observations, want 1", ck, seen)
		}
		return res, cal
	}
	want, wantCal := run(false)
	got, gotCal := run(true)
	for _, res := range []*Result{want, got} {
		gs := res.Guard
		if gs == nil || gs.Preflight == nil || !gs.Preflight.Hopeless || !gs.FallbackBaseline || gs.Trips != 0 {
			t.Fatalf("guard stats = %+v, want a hopeless pre-flight verdict and a trip-free fallback", gs)
		}
	}
	ckResultsEqual(t, "preflight", got, want)
	if fmt.Sprint(*got.Guard.Preflight) != fmt.Sprint(*want.Guard.Preflight) {
		t.Fatalf("pre-flight verdicts differ: %+v vs %+v", got.Guard.Preflight, want.Guard.Preflight)
	}
	if gotCal.Bias() != wantCal.Bias() {
		t.Fatalf("calibrator bias %g vs %g", gotCal.Bias(), wantCal.Bias())
	}
	if base := sim.Run(p.Net, input, sim.Options{CollectReports: true}); !reportsEqual(base.Reports, got.Reports) {
		t.Fatal("pre-flighted fallback changed the report multiset")
	}
}

// memStore is an in-memory checkpoint.Store with one latest slot. The
// runner only calls Save and Load; the embedded nil Store stands in for
// the rest of the interface.
type memStore struct {
	checkpoint.Store
	has     bool
	payload []byte
	version uint32
	saved   [][]byte // every saved payload, oldest first
}

func (m *memStore) Save(_ string, version uint32, payload []byte) error {
	m.has, m.payload, m.version = true, append([]byte(nil), payload...), version
	m.saved = append(m.saved, m.payload)
	return nil
}

func (m *memStore) Load(string) ([]byte, uint32, bool, error) {
	if !m.has {
		return nil, 0, false, checkpoint.ErrNoCheckpoint
	}
	return m.payload, m.version, false, nil
}

// savedStates runs an uninterrupted checkpointed run through a memStore
// and returns every record it saved, decoded, beside its payload.
func savedStates(t testing.TB, run func(ck *checkpoint.Runner) error) ([]*ckState, [][]byte) {
	t.Helper()
	store := &memStore{}
	if err := run(&checkpoint.Runner{Store: store, Name: "spap", Every: 64}); err != nil {
		t.Fatal(err)
	}
	var states []*ckState
	for _, b := range store.saved {
		st := &ckState{}
		if err := st.decode(b); err != nil {
			t.Fatal(err)
		}
		states = append(states, st)
	}
	return states, store.saved
}

func TestCheckpointedResumeValidation(t *testing.T) {
	ctx := context.Background()
	p, input := chainApp(t, 2048)
	cfg := cfgWithCapacity(100)
	run := func(ck *checkpoint.Runner) error {
		_, err := RunBaseAPSpAPCheckpointed(ctx, p, input, cfg, Options{}, ck)
		return err
	}
	states, _ := savedStates(t, run)
	var midBatch *ckState
	for _, st := range states {
		if st.phase == ckPhaseCold && st.inBatch && st.coldJ > 0 && len(st.res.Reports) > 0 {
			midBatch = st
			break
		}
	}
	if midBatch == nil {
		t.Fatal("no mid-batch checkpoint to craft from")
	}
	hotState := automata.StateID(0)
	for p.ColdID[hotState] != automata.None {
		hotState++
	}
	n := int64(len(input))
	cases := []struct {
		name   string
		want   string // the validation message naming the failed check
		mutate func(st *ckState)
	}{
		{"unknown phase", "unknown phase", func(st *ckState) { st.phase = ckPhaseDone + 1 }},
		{"position past input", "position", func(st *ckState) { st.pos = n + 1 }},
		{"negative position", "position", func(st *ckState) { st.pos = -1 }},
		{"final report past input", "final report", func(st *ckState) { st.res.Reports[0].Pos = n + 1 }},
		{"final report state out of range", "final report", func(st *ckState) { st.res.Reports[0].State = automata.StateID(p.Net.Len()) }},
		{"intermediate report at input end", "intermediate report", func(st *ckState) { st.inter[len(st.inter)-1].Pos = n }},
		{"intermediate target out of range", "intermediate report", func(st *ckState) { st.inter[0].Target = automata.StateID(len(p.ColdID)) }},
		{"intermediate target is hot", "intermediate report", func(st *ckState) { st.inter[0].Target = hotState }},
		{"in-flight batch out of range", "in-flight batch", func(st *ckState) { st.coldCur = int32(len(st.coldDone)) }},
		{"report cursor past batch", "report cursor", func(st *ckState) { st.coldJ = int64(len(st.inter)) + 1 }},
		{"completed-batch flags", "completed-batch flags", func(st *ckState) { st.coldDone = append(st.coldDone, false) }},
		{"layer count", "partition layers", func(st *ckState) { st.k = make([]int32, p.Net.NumNFAs()+1) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var e checkpoint.Enc
			midBatch.encode(&e)
			st := &ckState{}
			if err := st.decode(e.Bytes()); err != nil {
				t.Fatal(err)
			}
			tc.mutate(st)
			e.Reset()
			st.encode(&e)
			store := &memStore{}
			if err := store.Save("spap", spapStateVersion, e.Bytes()); err != nil {
				t.Fatal(err)
			}
			_, err := RunBaseAPSpAPCheckpointed(ctx, p, input, cfg, Options{}, &checkpoint.Runner{Store: store, Name: "spap", Every: 64})
			if !errors.Is(err, checkpoint.ErrMismatch) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("resume of a crafted state: err = %v, want ErrMismatch naming %q", err, tc.want)
			}
		})
	}
}
