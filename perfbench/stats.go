package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie above a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// tailQuantiles are the candidate tail percentiles, highest first.
var tailQuantiles = []float64{0.999, 0.99, 0.975, 0.95, 0.9, 0.75, 0.5}

// quantile returns the nearest-rank q-quantile of sorted values: the
// smallest sample with at least q·n samples at or below it.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// tailQuantile picks the highest candidate percentile that leaves at
// least minBeyond of n samples above it; ok is false when even the
// median does not.
func tailQuantile(n int) (q float64, ok bool) {
	for _, q := range tailQuantiles {
		// The epsilon absorbs rounding in 1-q (1-0.9 is just under 0.1).
		if float64(n)*(1-q) >= minBeyond-1e-9 {
			return q, true
		}
	}
	return 0, false
}

// dist summarizes one latency sample set.
type dist struct {
	N    int
	P50  float64
	P99  float64
	Tail float64 // value at TailQ
	// TailQ is the percentile chosen by tailQuantile (0 when n is too
	// small for any).
	TailQ float64
}

func summarize(values []float64) dist {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	d := dist{N: len(s), P50: quantile(s, 0.5), P99: quantile(s, 0.99)}
	if q, ok := tailQuantile(len(s)); ok {
		d.TailQ, d.Tail = q, quantile(s, q)
	}
	return d
}

// label names the chosen tail percentile, e.g. "p99" or "p97.5".
func (d dist) label() string {
	if d.TailQ == 0 {
		return "p-"
	}
	return "p" + strconv.FormatFloat(d.TailQ*100, 'f', -1, 64)
}

// latencyLine reports a latency set as name_p50_ms and name_p99_ms with
// its sample count. When fewer than minBeyond samples lie above p99, the
// p99 is withheld and the highest percentile that has them is reported
// instead.
func latencyLine(name string, d dist) string {
	line := fmt.Sprintf("%s_p50_ms %.4f ms, ", name, d.P50)
	switch {
	case d.TailQ >= 0.99:
		line += fmt.Sprintf("%s_p99_ms %.4f ms", name, d.P99)
	case d.TailQ > 0:
		line += fmt.Sprintf("%s_p99_ms n/a, %s_%s_ms %.4f ms", name, name, d.label(), d.Tail)
	default:
		line += fmt.Sprintf("%s_p99_ms n/a", name)
	}
	return line + fmt.Sprintf(" (n=%d)", d.N)
}

// tally counts operation outcomes. Latencies of failed, declined or
// wrong operations are never recorded: they count only against the
// success ratio.
type tally struct {
	Attempted int
	Errors    int
	Declines  int
	Wrong     int
}

func (t tally) Failed() int { return t.Errors + t.Declines + t.Wrong }

func (t tally) FailedFrac() float64 {
	if t.Attempted == 0 {
		return 0
	}
	return float64(t.Failed()) / float64(t.Attempted)
}

func (t *tally) add(o tally) {
	t.Attempted += o.Attempted
	t.Errors += o.Errors
	t.Declines += o.Declines
	t.Wrong += o.Wrong
}

// outcome classifies one finished operation.
type outcome int

const (
	opOK outcome = iota
	opError
	opDeclined
	opWrong
)

// latencies records per-operation outcomes and the latencies of the
// ones that succeeded.
type latencies struct {
	tally
	ms []float64
}

func (l *latencies) record(o outcome, d time.Duration) {
	l.Attempted++
	switch o {
	case opOK:
		l.ms = append(l.ms, ms(d))
	case opError:
		l.Errors++
	case opDeclined:
		l.Declines++
	case opWrong:
		l.Wrong++
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// clock is the time source the pacing loops use, so tests can inject a
// fake one.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

func (realClock) SleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// openLoop issues one operation per interval from start until end, on
// the calling goroutine, and times each from when it was issued. An
// operation the previous one held up past its due time counts as issued
// at that due time, so a call that stalls charges its stall to every
// operation queued behind it. An operation the generator could issue
// on time counts from when the sleep until its due time returned: the
// host waking the generator late is the benchmark's lateness, recorded
// separately, not the system's.
func openLoop(c clock, start, end time.Time, interval time.Duration, op func(i int, due time.Time) outcome, lat *latencies, lateness *[]float64) {
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if !due.Before(end) {
			return
		}
		issued := due
		if ready := c.Now(); !ready.After(due) {
			c.SleepUntil(due)
			issued = c.Now()
		}
		*lateness = append(*lateness, ms(c.Now().Sub(due)))
		o := op(i, issued)
		lat.record(o, c.Now().Sub(issued))
	}
}

// cpuTimes is the aggregate "cpu" line of /proc/stat, in clock ticks.
type cpuTimes struct {
	Total uint64
	Steal uint64
}

// parseCPUStat reads the aggregate cpu line of a /proc/stat stream.
func parseCPUStat(r io.Reader) (cpuTimes, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 0 || f[0] != "cpu" {
			continue
		}
		if len(f) < 5 {
			return cpuTimes{}, fmt.Errorf("stat: short cpu line %q", sc.Text())
		}
		var t cpuTimes
		for i, s := range f[1:] {
			v, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				return cpuTimes{}, fmt.Errorf("stat: field %d of cpu line: %w", i+1, err)
			}
			// Fields 9 and 10 (guest, guest_nice) are already counted
			// in user and nice.
			if i < 8 {
				t.Total += v
			}
			if i == 7 {
				t.Steal = v
			}
		}
		return t, nil
	}
	if err := sc.Err(); err != nil {
		return cpuTimes{}, err
	}
	return cpuTimes{}, fmt.Errorf("stat: no aggregate cpu line")
}

// stealFrac is the share of CPU time stolen by the hypervisor between
// two readings.
func stealFrac(a, b cpuTimes) float64 {
	if b.Total <= a.Total {
		return 0
	}
	return float64(b.Steal-a.Steal) / float64(b.Total-a.Total)
}

func readCPUStat() (cpuTimes, error) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTimes{}, err
	}
	defer f.Close()
	return parseCPUStat(f)
}

// processCPU returns the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssBytes reads the process's current resident set size.
func rssBytes() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}

// window measures process CPU, host steal and resident memory over one
// timed interval.
type window struct {
	start time.Time
	cpu0  time.Duration
	stat0 cpuTimes
	stop  chan struct{}
	done  chan struct{}
	rss   []float64 // samples, bytes

	Elapsed time.Duration
	CPU     time.Duration
	Steal   float64
	// RSSMedian and RSSPeak summarize the resident-set samples.
	RSSMedian, RSSPeak float64
}

// openWindow starts measuring from a collected heap; RSS is sampled
// every 20 ms until close.
func openWindow() *window {
	runtime.GC()
	w := &window{stop: make(chan struct{}), done: make(chan struct{})}
	w.stat0, _ = readCPUStat()
	w.cpu0 = processCPU()
	w.start = time.Now()
	w.rss = append(w.rss, float64(rssBytes()))
	go func() {
		defer close(w.done)
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-t.C:
				w.rss = append(w.rss, float64(rssBytes()))
			}
		}
	}()
	return w
}

// close ends the interval and fills in the measured fields.
func (w *window) close() {
	w.Elapsed = time.Since(w.start)
	w.CPU = processCPU() - w.cpu0
	close(w.stop)
	<-w.done
	w.rss = append(w.rss, float64(rssBytes()))
	w.RSSMedian = median(w.rss)
	for _, r := range w.rss {
		w.RSSPeak = math.Max(w.RSSPeak, r)
	}
	if s, err := readCPUStat(); err == nil {
		w.Steal = stealFrac(w.stat0, s)
	}
}

// median returns the median of xs (the mean of the middle pair for an
// even count).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
