package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the comparator reads.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // 0 for per-layer metrics: they have none
}

// runRecord is one run as printed: its environment stamp and result.
type runRecord struct {
	env map[string]any
	res result
}

// compareMain compares runs of the parent commit with runs of a change,
// per workload and per metric, by rank: the i-th parent run is paired with
// the i-th change run of the same workload (the runs should alternate
// which side goes first), a gain needs the change to win at least nine
// tenths of the pairs and move the median by more than the parent's own
// quartile spread, and a loss beyond the metric's bound is worse. A change
// whose runs are less correct than the parent's reads worse on every
// metric of the workload. Each input file holds the standard output of one
// or more runs.
func compareMain(args []string) error {
	if len(args) != 2 {
		return errors.New("usage: perfbench compare PARENT.out CHANGE.out (run from the repository root, next to BENCHMARK.json)")
	}
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	parent, err := readRuns(args[0])
	if err != nil {
		return err
	}
	change, err := readRuns(args[1])
	if err != nil {
		return err
	}
	specs := map[string]metricSpec{}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		specs[m.Name] = m
	}

	workloads := map[string]bool{}
	for _, r := range append(parent, change...) {
		workloads[fmt.Sprint(r.env["workload"])] = true
	}
	names := make([]string, 0, len(workloads))
	for w := range workloads {
		names = append(names, w)
	}
	sort.Strings(names)
	fmt.Printf("%-9s %-28s %5s %24s %24s %6s  %s\n", "workload", "metric", "pairs",
		"parent q1/med/q3", "change q1/med/q3", "won", "verdict")
	for _, w := range names {
		p, c := byWorkload(parent, w), byWorkload(change, w)
		if len(p) == 0 || len(c) == 0 {
			return fmt.Errorf("workload %s: %d parent and %d change runs; both sides need runs", w, len(p), len(c))
		}
		if err := likeForLike(append(p, c...)); err != nil {
			return fmt.Errorf("workload %s: %w", w, err)
		}
		n := min(len(p), len(c))
		// A change that gets more wrong than its parent gains nothing:
		// every metric of the workload then reads worse.
		worse := lessCorrect(p[:n], c[:n])
		if worse != "" {
			fmt.Printf("%-9s the change is less correct than the parent (%s)\n", w, worse)
		}
		metrics := make([]string, 0, len(p[0].res.Metrics))
		for m := range p[0].res.Metrics {
			metrics = append(metrics, m)
		}
		sort.Strings(metrics)
		for _, m := range metrics {
			s, ok := specs[m]
			if !ok {
				return fmt.Errorf("metric %s is not in BENCHMARK.json", m)
			}
			pv, cv := values(p[:n], m), values(c[:n], m)
			if len(pv) != n || len(cv) != n {
				return fmt.Errorf("workload %s: metric %s missing from some runs", w, m)
			}
			won, verdict := judge(s, pv, cv)
			if worse != "" {
				verdict = "worse"
			}
			fmt.Printf("%-9s %-28s %5d %24s %24s %5.0f%%  %s\n", w, m, n, summary(pv), summary(cv), 100*won, verdict)
		}
	}
	return nil
}

// lessCorrect says how the change runs are less correct than the parent
// runs: a run with a wrong report stream, or more failed operations over
// the runs. It returns "" when they are not.
func lessCorrect(parent, change []runRecord) string {
	var pFailed, cFailed int64
	wrong := 0
	for _, r := range parent {
		pFailed += r.res.Failed
	}
	for _, r := range change {
		cFailed += r.res.Failed
		if !r.res.Correct {
			wrong++
		}
	}
	switch {
	case wrong > 0:
		return fmt.Sprintf("%d change runs had a wrong report stream", wrong)
	case cFailed > pFailed:
		return fmt.Sprintf("%d failed operations against the parent's %d", cFailed, pFailed)
	}
	return ""
}

// judge returns the share of pairs the change won and the verdict.
func judge(s metricSpec, parent, change []float64) (won float64, verdict string) {
	better := func(a, b float64) bool { // a better than b
		if s.Better == "lower" {
			return a < b
		}
		return a > b
	}
	wins, losses := 0, 0
	for i := range parent {
		switch {
		case better(change[i], parent[i]):
			wins++
		case better(parent[i], change[i]):
			losses++
		}
	}
	n := float64(len(parent))
	won = float64(wins) / n
	pm, cm := median(parent), median(change)
	q1, q3 := quartiles(parent)
	spread := q3 - q1
	moved := math.Abs(cm-pm) > spread
	switch {
	case won >= 0.9 && moved && better(cm, pm):
		return won, "improved"
	case s.Bound == 0: // per-layer: no bound, so symmetric to improved
		if float64(losses)/n >= 0.9 && moved && better(pm, cm) {
			return won, "worse"
		}
		return won, "unresolved"
	}
	worsening := (cm - pm) / pm
	if s.Better == "higher" {
		worsening = -worsening
	}
	switch {
	case worsening > s.Bound:
		return won, "worse"
	case pm != 0 && spread/math.Abs(pm) > s.Bound && !allBetter(better, change, parent):
		return won, "unresolved"
	}
	return won, "unchanged"
}

func allBetter(better func(a, b float64) bool, change, parent []float64) bool {
	for _, c := range change {
		for _, p := range parent {
			if !better(c, p) {
				return false
			}
		}
	}
	return true
}

func summary(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g/%.4g/%.4g", q1, median(xs), q3)
}

func values(rs []runRecord, m string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.res.Metrics[m]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

func byWorkload(rs []runRecord, w string) []runRecord {
	var out []runRecord
	for _, r := range rs {
		if fmt.Sprint(r.env["workload"]) == w {
			out = append(out, r)
		}
	}
	return out
}

// likeForLike refuses runs whose environment stamps differ in anything but
// the seed: toolchain, cores, filesystem, sizes, rates and mode must match.
func likeForLike(rs []runRecord) error {
	key := func(env map[string]any) string {
		var parts []string
		for k, v := range env {
			if k != "seed" {
				parts = append(parts, fmt.Sprintf("%s=%v", k, v))
			}
		}
		sort.Strings(parts)
		return strings.Join(parts, " ")
	}
	want := key(rs[0].env)
	for _, r := range rs[1:] {
		if got := key(r.env); got != want {
			return fmt.Errorf("runs are not like for like:\n  %s\n  %s", want, got)
		}
	}
	return nil
}

// readRuns parses a file of run outputs: each result line is paired with
// the environment line printed just before it.
func readRuns(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var (
		runs []runRecord
		env  map[string]any
	)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var probe map[string]json.RawMessage
		if json.Unmarshal([]byte(line), &probe) != nil {
			continue
		}
		if raw, ok := probe["env"]; ok {
			env = nil
			if err := json.Unmarshal(raw, &env); err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			continue
		}
		if _, ok := probe["metrics"]; !ok {
			continue
		}
		if env == nil {
			return nil, fmt.Errorf("%s: result line without an env line before it", path)
		}
		var r result
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		runs = append(runs, runRecord{env: env, res: r})
		env = nil
	}
	return runs, sc.Err()
}
