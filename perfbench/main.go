// Command perfbench is the repository benchmark: it builds the paper's
// applications from a seed, drives them through the compile, execute and
// serve layers of the SparseAP pipeline, checks every report stream
// against sim.Run, and prints one JSON result line.
//
//	perfbench --workload compile|execute --seed N --seconds S --trace 0|1
//	perfbench compare PARENT.out CHANGE.out
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics taken from spans recorded around each
// call into the program. See README.md for why each workload exists and
// which layer metric should move which end-to-end metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildDir holds everything a run leaves behind, relative to the checkout
// root the benchmark runs from.
const buildDir = ".bench_build"

// sloMS is the latency limit behind match_slo_frac: a match answered
// correctly within this many milliseconds of when it was due meets it.
const sloMS = 250

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(2)
		}
		return
	}
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Int64("seed", 1, "seed for every generated input")
		seconds = flag.Int("seconds", 50, "measurement budget of the run in seconds")
		trace   = flag.Int("trace", 0, "1 records spans and prints per-layer metrics")
	)
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || *seed < 1 {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload {%s} --seed N>=1 --seconds S>=1 --trace 0|1\n",
			strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fatal(err)
	}
	ckDir, err := os.MkdirTemp(buildDir, "ckpt-")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(ckDir)

	r := newRun(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, ckDir)
	res, err := r.run()
	if err != nil {
		os.RemoveAll(ckDir)
		fatal(err)
	}
	if r.tr != nil {
		path := filepath.Join(buildDir, fmt.Sprintf("trace-%s-s%d.json", w.name, *seed))
		if err := r.tr.write(path); err != nil {
			os.RemoveAll(ckDir)
			fatal(fmt.Errorf("write trace: %w", err))
		}
		fmt.Fprintln(os.Stderr, "spans written to", path)
	}
	env, _ := json.Marshal(map[string]any{"env": r.env()})
	fmt.Println(string(env))
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
	if !res.Correct {
		// A wrong report stream fails the run, not only the line.
		fmt.Fprintf(os.Stderr, "perfbench: %d report streams differed from sim.Run\n", r.wrong)
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env stamps a run with what must match for two runs to be compared.
func (r *run) env() map[string]any {
	return map[string]any{
		"workload":   r.w.name,
		"seed":       r.seed,
		"seconds":    r.budget.Seconds(),
		"trace":      r.tr != nil,
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"ckpt_fs":    fsType(r.ckDir),
		"apps":       strings.Join(r.w.apps, ","),
		"served":     strings.Join(servedApps, ","),
		"divisor":    r.w.divisor,
		"input":      r.w.inputLen,
		"capacity":   r.w.capacity(),
		"window":     windowLen,
		"rate":       rate,
		"slo_ms":     sloMS,
		"cal_ref":    calRef,
	}
}

// fsType names the filesystem holding dir (statfs magic), since checkpoint
// save latency depends on it.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x794C7630:
		return "overlayfs"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return "0x" + strconv.FormatUint(uint64(uint32(st.Type)), 16)
}

// peakRSSMB reads the process's high-water resident set (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

func workloadNames() []string {
	var ns []string
	for _, w := range allWorkloads {
		ns = append(ns, w.name)
	}
	sort.Strings(ns)
	return ns
}

func workloadByName(n string) (*workload, bool) {
	for _, w := range allWorkloads {
		if w.name == n {
			return w, true
		}
	}
	return nil, false
}
