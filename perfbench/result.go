package main

import (
	"fmt"
	"math"
	"os"
	"time"
)

// endToEnd lists the untraced metrics with their units, in print order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"exec_mb_per_s", "MB/s"},
	{"exec_guarded_mb_per_s", "MB/s"},
	{"exec_ckpt_mb_per_s", "MB/s"},
	{"baseline_mb_per_s", "MB/s"},
	{"sim_speedup_geomean", "x"},
	{"match_p50_ms", "ms"},
	{"match_p99_ms", "ms"},
	{"match_slo_frac", "fraction"},
	{"match_rps", "1/s"},
	{"stream_mb_per_s", "MB/s"},
	{"ok_frac", "fraction"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the traced metrics with their units. The layer timings
// from lint.run_ms to spap.ckpt_ms are self times summed over one pass of a
// stage, median over passes; the checkpoint and serve timings are per call.
var perLayer = []struct{ name, unit string }{
	{"lint.run_ms", "ms"},
	{"rewrite.rewrite_ms", "ms"},
	{"rewrite.states_removed", "count"},
	{"hotness.analyze_ms", "ms"},
	{"hotcold.static_ms", "ms"},
	{"hotcold.profiled_ms", "ms"},
	{"hotcold.intermediate_states", "count"},
	{"hotcold.resource_saving", "fraction"},
	{"worstcase.analyze_ms", "ms"},
	{"sim.compile_ms", "ms"},
	{"sim.run_ns_per_symbol", "ns"},
	{"sim.sparse_ns_per_symbol", "ns"},
	{"sim.dense_ns_per_symbol", "ns"},
	{"ap.baseline_ms", "ms"},
	{"ap.baseline_cycles", "count"},
	{"ap.batches", "count"},
	{"spap.run_ms", "ms"},
	{"spap.guarded_ms", "ms"},
	{"spap.apcpu_ms", "ms"},
	{"spap.ckpt_ms", "ms"},
	{"spap.total_cycles", "count"},
	{"spap.intermediate_reports", "count"},
	{"spap.enable_stalls", "count"},
	{"spap.jump_ratio", "fraction"},
	{"spap.guard_trips", "count"},
	{"checkpoint.save_p50_ms", "ms"},
	{"checkpoint.save_p99_ms", "ms"},
	{"checkpoint.saves", "count"},
	{"checkpoint.bytes", "bytes"},
	{"serve.first_match_ms", "ms"},
	{"serve.match_service_ms", "ms"},
	{"serve.match_service_ms.PEN", "ms"},
	{"serve.match_service_ms.Snort", "ms"},
	{"serve.match_service_ms.HM500", "ms"},
	{"serve.match_service_ms.TCP", "ms"},
	{"serve.reply_bytes", "bytes"},
	{"serve.guard_trips", "count"},
	{"serve.degraded", "count"},
	{"serve.sheds", "count"},
	{"loadgen.late_ms", "ms"},
	{"loadgen.conn_wait_ms", "ms"},
	{"loadgen.backlog", "count"},
	{"trace.overhead_frac", "fraction"},
}

// Span names grouped for the layer-share self-check.
var (
	analysisSpans = []string{"lint.run", "rewrite.rewrite", "hotness.analyze", "hotcold.static",
		"hotcold.profiled", "worstcase.analyze", "sim.compile"}
	execSpans = []string{"sim.run", "ap.baseline", "spap.run", "spap.guarded", "spap.apcpu",
		"spap.ckpt", "checkpoint.save"}
)

// minShare is the share of wall time the workload's own layers must cover;
// below it the workload no longer measures what it exists for.
const minShare = 0.5

// result assembles the run's last line.
func (r *run) result() (*result, error) {
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	r.e2e["peak_rss_mb"] = rss
	var setups []float64
	for _, rep := range r.setupReps {
		setups = append(setups, r.secondsOf(rep))
	}
	r.e2e["setup_s"] = median(setups)
	for i, p := range execPaths {
		if p.metric == "" {
			continue
		}
		var mbps []float64
		for _, pass := range r.passes {
			mbps = append(mbps, float64(pass.bytes)/1e6/r.secondsOf(pass.ivs[i]))
		}
		r.e2e[p.metric] = median(mbps)
	}
	r.e2e["sim_speedup_geomean"] = r.speedup
	r.serveMetrics()
	if r.tr != nil {
		r.layerMetrics()
	}
	r.e2e["ok_frac"] = 1 - float64(r.failed)/float64(r.attempted)
	fmt.Fprintf(os.Stderr, "perfbench: host loop %.0f/s on average over %d samples (reference %.0f/s)\n",
		r.cal.meanRate(), int(r.cal.spent()/calSpin), calRef)

	res := &result{
		Correct:   r.wrong == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	list, values := endToEnd, r.e2e
	if r.tr != nil {
		list, values = perLayer, r.layer
	}
	for _, m := range list {
		v, ok := values[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s was not measured", m.name)
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	return res, nil
}

// layerMetrics derives the per-layer metrics of a traced run from its
// spans and counters, and runs the layer-share self-check.
func (r *run) layerMetrics() {
	ms := r.tr.layerMS()
	for _, name := range []string{"lint.run", "rewrite.rewrite", "hotness.analyze", "hotcold.static",
		"hotcold.profiled", "worstcase.analyze", "sim.compile", "ap.baseline", "spap.run",
		"spap.guarded", "spap.apcpu", "spap.ckpt"} {
		r.layer[name+"_ms"] = ms[name] // 0 when the workload never calls it
	}
	r.layer["sim.run_ns_per_symbol"] = r.layer["sim.run_ns"] / r.layer["sim.run_symbols"]
	r.layer["sim.sparse_ns_per_symbol"] = r.layer["sim.sparse_ns"] / r.layer["sim.run_symbols"]
	r.layer["sim.dense_ns_per_symbol"] = r.layer["sim.dense_ns"] / r.layer["sim.run_symbols"]
	if n := r.layer["spap.jump_ratio_apps"]; n > 0 {
		r.layer["spap.jump_ratio"] = r.layer["spap.jump_ratio_sum"] / n
	} else {
		r.layer["spap.jump_ratio"] = 0
	}
	for _, k := range []string{"rewrite.states_removed", "hotcold.intermediate_states", "hotcold.resource_saving",
		"ap.baseline_cycles", "ap.batches", "spap.total_cycles", "spap.intermediate_reports",
		"spap.enable_stalls", "spap.guard_trips"} {
		r.layer[k] += 0 // present even when the workload never produces it
	}

	saves := r.store.saves
	r.layer["checkpoint.save_p50_ms"] = orZero(percentile(saves, 50))
	r.layer["checkpoint.save_p99_ms"] = orZero(percentile(saves, 99))
	r.layer["checkpoint.saves"] = float64(len(saves))
	r.layer["checkpoint.bytes"] = float64(r.store.bytes)

	r.layer["serve.first_match_ms"] = median(r.firstMatch)
	per, all := r.serviceMS()
	r.layer["serve.match_service_ms"] = all
	for _, app := range []string{"PEN", "Snort", "HM500", "TCP"} {
		r.layer["serve.match_service_ms."+app] = per[app] // 0 when not resident
	}
	r.layer["serve.reply_bytes"] = median(r.replyBytes)
	r.layer["loadgen.conn_wait_ms"] = percentile(r.connWait, 99)

	// Layer shares: self time of the analysis and execution layers over
	// the run's wall time, less the time spent in the host loop. Untraced
	// execute passes recorded no spans, so the layer time inside traced
	// passes is scaled up by the ratio of all pass time to traced pass
	// time.
	wall := (time.Since(r.tr.t0) - r.cal.spent()).Seconds()
	self := r.tr.selfTimes()
	var analysis, exec, inPasses float64
	for i, s := range r.tr.spans {
		sec := float64(self[i]) / 1e9
		if contains(analysisSpans, s.Name) {
			analysis += sec
		}
		if contains(execSpans, s.Name) {
			if r.tr.root(i) == "execute.pass" {
				inPasses += sec
			} else {
				exec += sec
			}
		}
	}
	traced, untraced := r.passSeconds(0), r.passSeconds(1)
	exec += inPasses * (sum(traced) + sum(untraced)) / sum(traced)
	fmt.Fprintf(os.Stderr, "perfbench: analysis layers %.1f%%, execution layers %.1f%% of %.1f s wall time\n",
		100*analysis/wall, 100*exec/wall, wall)
	switch r.w.name {
	case "compile":
		r.shareCheck("analysis", analysis/wall)
	case "execute":
		r.shareCheck("execution", exec/wall)
	}

	// Tracing overhead: traced over untraced median execute pass time.
	r.layer["trace.overhead_frac"] = median(traced)/median(untraced) - 1
	fmt.Fprintf(os.Stderr, "perfbench: tracing overhead %+.2f%% over %d traced / %d untraced execute passes\n",
		100*r.layer["trace.overhead_frac"], len(traced), len(untraced))
}

// secondsOf sums intervals at the reference host speed.
func (r *run) secondsOf(ivs []interval) float64 {
	t := 0.0
	for _, iv := range ivs {
		t += r.cal.seconds(iv)
	}
	return t
}

// passSeconds returns the execute pass times, traced (i = 0) or untraced
// (i = 1), at the reference host speed.
func (r *run) passSeconds(i int) []float64 {
	var out []float64
	for _, iv := range r.passWall[i] {
		out = append(out, r.cal.seconds(iv))
	}
	return out
}

func (r *run) shareCheck(what string, got float64) {
	var err error
	if got < minShare {
		err = fmt.Errorf("%s layers cover %.0f%% of wall time, below %.0f%%: the workload no longer exercises them", what, 100*got, 100*minShare)
		// The run's other problems were printed before the result was
		// assembled; this one is found only now.
		fmt.Fprintln(os.Stderr, "perfbench: layer share:", err)
	}
	r.op("layer share", err, false)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

func orZero(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}
