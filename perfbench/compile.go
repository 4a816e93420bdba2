package main

import (
	"fmt"
	"time"

	"sparseap/internal/automata"
	"sparseap/internal/hotcold"
	"sparseap/internal/hotness"
	"sparseap/internal/lint"
	"sparseap/internal/rewrite"
	"sparseap/internal/sim"
	"sparseap/internal/symset"
	"sparseap/internal/worstcase"
)

// compiled is what one pass of the analysis pipeline produces for an app.
type compiled struct {
	rw       *rewrite.Result
	static   *hotcold.Partition
	profiled *hotcold.Partition
}

// compileRound repeats the whole analysis pipeline over every app while the
// stage stays within allowance. Each repetition is one set-up, so setup_s
// is their median over the run; the host loop is sampled around the apps.
// The first repetition's minimized networks and profiled partitions feed
// the execute and serve stages.
func (r *run) compileRound(allowance time.Duration) error {
	return repeatWithin(&r.compileSpent, allowance, func() error {
		rep := len(r.setupReps)
		var (
			outs []compiled
			ivs  []interval
		)
		r.pass = rep
		root := r.begin("compile.pipeline", -1, "")
		for _, a := range r.apps {
			r.cal.due()
			start := time.Now()
			c, err := r.compileApp(a, root)
			ivs = append(ivs, since(start))
			if err != nil {
				return fmt.Errorf("%s: %w", a.Abbr, err)
			}
			outs = append(outs, c)
		}
		r.cal.sample()
		r.setupReps = append(r.setupReps, ivs)
		r.end(root)
		removed, inter, saving := 0, 0, 0.0
		for i, a := range r.apps {
			r.checkCompiled(a, outs[i])
			removed += outs[i].rw.Stats.StatesRemoved()
			inter += outs[i].profiled.NumIntermediate
			saving += outs[i].profiled.ResourceSaving()
			if rep == 0 {
				a.net, a.part, a.origOf = outs[i].rw.Net, outs[i].profiled, outs[i].rw.OrigOf
			}
		}
		r.layerSet("rewrite.states_removed", float64(removed))
		r.layerSet("hotcold.intermediate_states", float64(inter))
		r.layerSet("hotcold.resource_saving", saving/float64(len(r.apps)))
		r.pass = -1
		return nil
	})
}

// compileApp runs lint, rewrite, static hotness and partition, the 1%
// profiled partition, the NoGram worst-case bound and the image compile —
// the calls apsim and apserve make before the first symbol.
func (r *run) compileApp(a *appState, parent int) (compiled, error) {
	var c compiled
	id := a.Abbr
	h := r.begin("lint.run", parent, id)
	lres := lint.Run(a.Net, lint.Options{Capacity: r.w.capacity()})
	r.end(h)
	if err := lres.Err(); err != nil {
		return c, err
	}

	h = r.begin("rewrite.rewrite", parent, id)
	rw, err := rewrite.Rewrite(a.Net, rewrite.Options{})
	r.end(h)
	if err != nil {
		return c, err
	}
	c.rw = rw
	minNet := rw.Net

	h = r.begin("hotness.analyze", parent, id)
	hot := hotness.Analyze(minNet, hotness.Config{})
	r.end(h)

	h = r.begin("hotcold.static", parent, id)
	c.static, err = hotcold.BuildWithStrategy(minNet, hotcold.StrategyStatic,
		hotcold.StrategyInput{Hotness: hot}, hotcold.Options{Capacity: r.w.capacity()})
	r.end(h)
	if err != nil {
		return c, err
	}

	h = r.begin("hotcold.profiled", parent, id)
	c.profiled, err = hotcold.BuildFromProfile(minNet, profilePrefix(a.Input), hotcold.Options{Capacity: r.w.capacity()})
	r.end(h)
	if err != nil {
		return c, err
	}

	h = r.begin("worstcase.analyze", parent, id)
	worstcase.Analyze(minNet, worstcase.Config{NoGram: true})
	r.end(h)

	h = r.begin("sim.compile", parent, id)
	sim.Compile(minNet)
	r.end(h)
	return c, nil
}

// checkCompiled re-verifies the rewrite certificates and checks the
// minimized network against the original on the held-out input.
func (r *run) checkCompiled(a *appState, c compiled) {
	if err := c.rw.Check(symset.All()); err != nil {
		r.op(a.Abbr+" rewrite certificates", err, false)
		return
	}
	res := sim.Run(c.rw.Net, a.execIn, sim.Options{CollectReports: true})
	r.op(a.Abbr+" minimized network", nil, !sameReports(mapStates(res.Reports, c.rw.OrigOf), a.oracle))
}

// mapStates renames report states through origOf (nil: unchanged).
func mapStates(rs []sim.Report, origOf []automata.StateID) []sim.Report {
	if origOf == nil {
		return rs
	}
	out := make([]sim.Report, len(rs))
	for i, rep := range rs {
		out[i] = sim.Report{Pos: rep.Pos, State: origOf[rep.State]}
	}
	return out
}

// profilePrefix is the 1% profiling input apsim uses.
func profilePrefix(in []byte) []byte {
	n := len(in) / 100
	if n < 1 {
		n = 1
	}
	return in[:n]
}

// partitionApps builds the profiled partition the execute stage runs, on
// the workloads whose set-up is not the compile pipeline.
func (r *run) partitionApps() error {
	for _, a := range r.apps {
		h := r.begin("hotcold.profiled", -1, a.Abbr)
		p, err := hotcold.BuildFromProfile(a.Net, profilePrefix(a.Input), hotcold.Options{Capacity: r.w.capacity()})
		r.end(h)
		if err != nil {
			return fmt.Errorf("%s: profiled partition: %w", a.Abbr, err)
		}
		a.part = p
	}
	return nil
}

// repeatWithin runs f again and again while a stage's cumulative time,
// kept in spent, stays within allowance: a repetition starts while at least
// half of one as long as the last still fits. Allowances grow round by
// round, so time a round overran is taken back from the next.
func repeatWithin(spent *time.Duration, allowance time.Duration, f func() error) error {
	var last time.Duration
	for *spent+last/2 < allowance {
		start := time.Now()
		if err := f(); err != nil {
			return err
		}
		last = time.Since(start)
		*spent += last
	}
	return nil
}

// share returns frac of d.
func share(d time.Duration, frac float64) time.Duration {
	return time.Duration(float64(d) * frac)
}
