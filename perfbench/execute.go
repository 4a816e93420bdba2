package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"time"

	"sparseap/internal/ap"
	"sparseap/internal/checkpoint"
	"sparseap/internal/spap"
)

// execPaths are the five execution paths, in the order each pass runs
// them; each but apcpu has its own end-to-end throughput metric.
var execPaths = []struct{ span, metric string }{
	{"ap.baseline", "baseline_mb_per_s"},
	{"spap.run", "exec_mb_per_s"},
	{"spap.guarded", "exec_guarded_mb_per_s"},
	{"spap.apcpu", ""},
	{"spap.ckpt", "exec_ckpt_mb_per_s"},
}

// execPass is one execute pass: the bytes each path ran and, per path, the
// interval of each app's run.
type execPass struct {
	bytes int
	ivs   [][]interval
}

// executeRound runs every app's input through all five paths, pass after
// pass, while the stage stays within allowance, sampling the host loop
// around the calls. Each path's throughput is the bytes of a pass over its
// time in that pass; the metric is the median over the run's passes.
func (r *run) executeRound(allowance time.Duration) error {
	return repeatWithin(&r.execSpent, allowance, func() error {
		pass := len(r.passes)
		p := execPass{ivs: make([][]interval, len(execPaths))}
		var ratios []float64
		err := r.alternating(pass, func() error {
			root := r.begin("execute.pass", -1, "")
			defer r.end(root)
			r.cal.sample()
			for _, a := range r.apps {
				ratio, err := r.executeApp(a, root, pass, p.ivs)
				if err != nil {
					return err
				}
				ratios = append(ratios, ratio)
				p.bytes += len(a.execIn)
			}
			r.cal.sample()
			return nil
		})
		if err != nil {
			return err
		}
		r.passes = append(r.passes, p)
		g := geomean(ratios)
		if pass > 0 && g != r.speedup {
			r.op("simulated speedup", fmt.Errorf("geomean %v differs from pass 0 (%v)", g, r.speedup), false)
		}
		r.speedup = g
		r.pass = -1
		return nil
	})
}

// executeApp runs one app through the five paths, appends each path's
// interval to ivs, checks every report stream against the oracle and
// returns the simulated speedup (baseline cycles over BaseAP/SpAP cycles).
func (r *run) executeApp(a *appState, parent, pass int, ivs [][]interval) (float64, error) {
	ctx := context.Background()
	in := a.execIn
	opts := spap.Options{CollectReports: true}
	timed := func(i int, f func() error) error {
		r.cal.due()
		h := r.begin(execPaths[i].span, parent, a.Abbr)
		if i == 4 {
			r.store.setParent(h)
		}
		start := time.Now()
		err := f()
		ivs[i] = append(ivs[i], since(start))
		r.end(h)
		return err
	}

	var base *ap.BaselineResult
	err := timed(0, func() (err error) {
		base, err = ap.RunBaseline(a.net, in, r.cfg)
		return err
	})
	if err != nil {
		return 0, fmt.Errorf("%s baseline: %w", a.Abbr, err)
	}
	r.op(a.Abbr+" baseline", nil, base.Reports != int64(len(a.oracle)))

	var plain *spap.Result
	err = timed(1, func() (err error) {
		plain, err = spap.RunBaseAPSpAP(a.part, in, r.cfg, opts)
		return err
	})
	r.checkExec(a.Abbr+" plain", plain, err, a)
	if err != nil {
		return 0, err
	}

	var guarded *spap.Result
	err = timed(2, func() (err error) {
		guarded, err = spap.RunGuarded(ctx, a.part, in, r.cfg, spap.DefaultGuard(), opts)
		return err
	})
	r.checkExec(a.Abbr+" guarded", guarded, err, a)

	var apcpu *spap.Result
	err = timed(3, func() (err error) {
		apcpu, err = spap.RunAPCPU(a.part, in, r.cfg, spap.DefaultCPUModel(), opts)
		return err
	})
	r.checkExec(a.Abbr+" apcpu", apcpu, err, a)

	name := fmt.Sprintf("%s-pass%d", a.Abbr, pass)
	var ck *spap.Result
	err = timed(4, func() (err error) {
		ck, err = spap.RunBaseAPSpAPCheckpointed(ctx, a.part, in, r.cfg, opts,
			&checkpoint.Runner{Store: r.store, Name: name})
		return err
	})
	r.checkExec(a.Abbr+" checkpointed", ck, err, a)
	if err := r.store.Remove(name); err != nil {
		return 0, fmt.Errorf("%s: remove checkpoints: %w", a.Abbr, err)
	}

	if pass == 0 {
		r.layerAdd("ap.baseline_cycles", float64(base.Cycles))
		r.layerAdd("ap.batches", float64(base.Batches))
		r.layerAdd("spap.total_cycles", float64(plain.TotalCycles))
		r.layerAdd("spap.intermediate_reports", float64(plain.IntermediateReports))
		r.layerAdd("spap.enable_stalls", float64(plain.EnableStalls))
		if !math.IsNaN(plain.JumpRatio) {
			r.layerAdd("spap.jump_ratio_sum", plain.JumpRatio)
			r.layerAdd("spap.jump_ratio_apps", 1)
		}
		if guarded != nil && guarded.Guard != nil {
			r.layerAdd("spap.guard_trips", float64(guarded.Guard.Trips))
		}
		fmt.Fprintf(os.Stderr, "perfbench: %-8s baseline %d batches %d cycles; BaseAP/SpAP %d cycles, %d reports, %d IM reports, %d stalls, speedup %.4fx\n",
			a.Abbr, base.Batches, base.Cycles, plain.TotalCycles, plain.NumReports,
			plain.IntermediateReports, plain.EnableStalls, float64(base.Cycles)/float64(plain.TotalCycles))
	}
	return float64(base.Cycles) / float64(plain.TotalCycles), nil
}

// alternating runs one execute pass. In a traced run every second pass runs
// with tracing off, so the run can report the tracing overhead from
// like-for-like passes; the execute stage has the most spans per second.
func (r *run) alternating(pass int, f func() error) error {
	r.pass = pass
	saved := r.tr
	off := saved != nil && pass%2 == 1
	if off {
		r.tr = nil
	}
	start := time.Now()
	err := f()
	wall := since(start)
	r.tr = saved
	if saved != nil {
		i := 0
		if off {
			i = 1
		}
		r.passWall[i] = append(r.passWall[i], wall)
	}
	return err
}

func (r *run) checkExec(what string, res *spap.Result, err error, a *appState) {
	wrong := err == nil && (res.NumReports != int64(len(a.oracle)) ||
		!sameReports(mapStates(res.Reports, a.origOf), a.oracle))
	r.op(what, err, wrong)
}
