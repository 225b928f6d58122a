// Command perfbench is RAVE's end-to-end benchmark. It drives the real
// services over loopback TCP on the real clock, one workload per run:
//
//	view        two thin clients orbiting their own galleon sessions,
//	            closed loop, 400×400 adaptive frames over an 11 Mbit link
//	collab      an open-loop mutation stream through a 4-node gateway
//	            fleet with on-disk journals, beside two PDA viewers of the
//	            hot session's render replica
//	distribute  Elle split into 8 nodes, rendered across two render
//	            services over sockets and depth-composited, closed loop
//
// Every run checks the program's outputs and prints one JSON object as
// its last line of standard output. With --trace 0 it reports the
// end-to-end metrics; with --trace 1 it first repeats a short untraced
// measurement, then drives the same work through its own loops with
// spans around each layer call and reports per-layer metrics, the
// residual no layer accounts for, and the tracing overhead.
//
// Run it with perfbench/run.sh from the root of the repository.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// runCfg is what every workload receives.
type runCfg struct {
	seed    uint64
	seconds float64
	trace   bool
	dir     string // scratch directory, removed after the run
	nproc   int
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects what one workload run measured.
type report struct {
	correct bool
	ops     tally
	// metrics holds every value the run produced, by name; the JSON
	// line carries the end-to-end or the per-layer subset of them.
	metrics map[string]metric
	// lines is the human-readable report printed before the JSON line.
	lines []string
}

func newReport() *report {
	return &report{correct: true, metrics: map[string]metric{}}
}

// set records a metric; a value that could not be measured (NaN, as the
// median of no samples) is left out and named in the report.
func (r *report) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.printf("metric %s: no samples", name)
		return
	}
	r.metrics[name] = metric{v, unit}
}

func (r *report) printf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// fail marks the run incorrect with a reason.
func (r *report) fail(format string, args ...any) {
	r.correct = false
	r.printf("CHECK FAILED: "+format, args...)
}

// endToEnd are the metrics a --trace 0 run reports, as BENCHMARK.json
// lists them. An op is each workload's headline operation: a decoded
// frame (view), a commit (collab) or a composited frame (distribute).
// Latencies are printed in every report but not listed: on a shared
// host they move with CPU steal far more than these do.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"cpu_ms_per_op", "ms"},
	{"rss_mb", "MiB"},
	{"wire_kib_per_op", "KiB"},
}

// perLayer are the metrics a --trace 1 run reports. A layer a workload
// does not exercise reports 0.
var perLayer = []struct{ name, unit string }{
	{"raster.band_ms_per_frame", "ms"},
	{"raster.triangles_per_frame", "count"},
	{"raster.pixels_per_frame", "count"},
	{"raster.earlyz_tri_frac", "ratio"},
	{"renderservice.render_ms", "ms"},
	{"renderservice.declined_frac", "ratio"},
	{"renderservice.apply_lag_ms", "ms"},
	{"imgcodec.encode_ms", "ms"},
	{"imgcodec.decode_ms", "ms"},
	{"imgcodec.bytes_per_frame", "bytes"},
	{"imgcodec.ratio", "ratio"},
	{"transport.bytes_per_frame", "bytes"},
	{"transport.write_ms_per_frame", "ms"},
	{"transport.bytes_per_commit", "bytes"},
	{"marshal.scene_bytes_per_frame", "bytes"},
	{"marshal.scene_encode_ms", "ms"},
	{"marshal.frame_decode_ms", "ms"},
	{"dataservice.extract_ms", "ms"},
	{"dataservice.subset_rtt_ms", "ms"},
	{"dataservice.apply_ms", "ms"},
	{"compositor.composite_ms", "ms"},
	{"wal.sync_ms_per_commit", "ms"},
	{"wal.syncs_per_commit", "count"},
	{"wal.bytes_per_commit", "bytes"},
	{"wal.checkpoint_ms", "ms"},
	{"wal.append_ms", "ms"},
	{"gateway.dispatch_ms", "ms"},
	{"gateway.declined_frac", "ratio"},
	{"gateway.retries_per_commit", "count"},
	{"gen.late_p50_ms", "ms"},
	{"gen.late_p99_ms", "ms"},
	{"host.steal_frac", "ratio"},
	{"trace.residual_ms", "ms"},
	{"trace.residual_frac", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

var workloads = map[string]func(runCfg, *report) error{
	"view":       runView,
	"collab":     runCollab,
	"distribute": runDistribute,
}

func main() {
	workload := flag.String("workload", "", "view, collab, distribute, or all")
	seed := flag.Uint64("seed", 1, "seed for the generated inputs")
	seconds := flag.Float64("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "1 for the traced per-layer run")
	dir := flag.String("dir", ".bench_build", "scratch directory")
	flag.Parse()

	if *workload == "all" {
		os.Exit(runAll(*seed, *seconds, *trace, *dir))
	}
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload view|collab|distribute|all --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	scratch, err := os.MkdirTemp(*dir, "run-"+*workload+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	defer os.RemoveAll(scratch)

	cfg := runCfg{seed: *seed, seconds: *seconds, trace: *trace == 1, dir: scratch, nproc: nproc}
	rep := newReport()
	if err := run(cfg, rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.RemoveAll(scratch)
		os.Exit(1)
	}

	fmt.Printf("workload %s seed %d seconds %g trace %d\n", *workload, *seed, *seconds, *trace)
	fmt.Printf("host %s\n", hostFingerprint())
	for _, l := range rep.lines {
		fmt.Println(l)
	}
	names := endToEnd
	if cfg.trace {
		names = perLayer
	}
	res := result{Correct: rep.correct, Attempted: rep.ops.Attempted, Failed: rep.ops.Failed(), Metrics: map[string]metric{}}
	for _, m := range names {
		v, ok := rep.metrics[m.name]
		if !ok {
			v = metric{0, m.unit}
		}
		res.Metrics[m.name] = v
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runAll runs every workload in its own process, so memory and CPU
// figures stay per workload, prints their reports, and ends with one
// JSON line holding every workload's metrics under its name.
func runAll(seed uint64, seconds float64, trace int, dir string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	all := result{Correct: true, Metrics: map[string]metric{}}
	for _, n := range names {
		var out bytes.Buffer
		cmd := exec.Command(self, "--workload", n, "--seed", fmt.Sprint(seed),
			"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace), "--dir", dir)
		cmd.Stdout = &out
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: workload %s: %v\n", n, err)
			return 1
		}
		fmt.Print(out.String())
		fmt.Println()
		var last string
		sc := bufio.NewScanner(&out)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			if t := strings.TrimSpace(sc.Text()); t != "" {
				last = t
			}
		}
		var r result
		if err := json.Unmarshal([]byte(last), &r); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: workload %s: bad result line: %v\n", n, err)
			return 1
		}
		all.Correct = all.Correct && r.Correct
		all.Attempted += r.Attempted
		all.Failed += r.Failed
		for k, v := range r.Metrics {
			all.Metrics[n+"."+k] = v
		}
	}
	line, err := json.Marshal(all)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// hostFingerprint names the machine a result came from.
func hostFingerprint() string {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	fp := map[string]any{
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"goarch":     runtime.GOARCH,
		"go":         runtime.Version(),
		"cpu_model":  model,
	}
	b, _ := json.Marshal(fp)
	return string(b)
}

// Set-up is built repeatedly and its median cost reported: at least
// setupMin builds and setupTime of building, at most setupMax builds; a
// traced run builds once.
const (
	setupMin  = 7
	setupMax  = 200
	setupTime = time.Second
)

// setupCost is the median cost of building a deployment.
type setupCost struct {
	wall, cpu float64 // seconds
	builds    int
}

// setUp builds a deployment repeatedly, tearing down all but the last,
// and returns the last with the median wall and process CPU time of a
// build. Set-up is measured like any other metric, so work moved into
// it shows.
func setUp[T any](cfg runCfg, build func(i int) (T, error), teardown func(T)) (T, setupCost, error) {
	var wall, cpu []float64
	var total time.Duration
	for i := 0; ; i++ {
		start, cpu0 := time.Now(), processCPU()
		d, err := build(i)
		if err != nil {
			return d, setupCost{}, err
		}
		took := time.Since(start)
		wall = append(wall, took.Seconds())
		cpu = append(cpu, (processCPU() - cpu0).Seconds())
		total += took
		if cfg.trace || (len(wall) >= setupMin && total >= setupTime) || len(wall) >= setupMax {
			return d, setupCost{wall: median(wall), cpu: median(cpu), builds: len(wall)}, nil
		}
		teardown(d)
	}
}

// report records a set-up cost. setup_s is the CPU time of a build:
// wall time on a shared host moves with its neighbours' load, which
// would hide a change in the work itself.
func (c setupCost) report(rep *report, what string) {
	rep.set("setup_s", "s", c.cpu)
	rep.printf("setup: %s; median of %d builds: setup_s %.5f s of CPU, %.5f s wall", what, c.builds, c.cpu, c.wall)
}

// subdir makes a fresh directory under the run's scratch directory.
func (c runCfg) subdir(name string) (string, error) {
	d := filepath.Join(c.dir, name)
	return d, os.MkdirAll(d, 0o755)
}

// windowMetrics reports the host and process figures every workload
// shares.
func windowMetrics(rep *report, w *window, ops int, wire *linkStats) {
	rep.set("rss_mb", "MiB", w.RSSMedian/(1<<20))
	rep.set("host.steal_frac", "ratio", w.Steal)
	if ops > 0 {
		rep.set("cpu_ms_per_op", "ms", ms(w.CPU)/float64(ops))
		rep.set("wire_kib_per_op", "KiB", float64(wire.written.Load())/1024/float64(ops))
	}
	rep.printf("window %.3f s, process CPU %.3f s (%.3f cores), host steal %.4f, RSS median %.1f MiB, peak_rss_mb %.2f MiB",
		w.Elapsed.Seconds(), w.CPU.Seconds(), w.CPU.Seconds()/w.Elapsed.Seconds(), w.Steal, w.RSSMedian/(1<<20), w.RSSPeak/(1<<20))
}
