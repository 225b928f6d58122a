package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestQuantileNearestRank(t *testing.T) {
	var xs []float64
	for i := 1; i <= 100; i++ {
		xs = append(xs, float64(i))
	}
	for q, want := range map[float64]float64{0.5: 50, 0.9: 90, 0.99: 99, 0.999: 100, 0.001: 1} {
		if got := quantile(xs, q); got != want {
			t.Errorf("quantile(1..100, %v) = %v, want %v", q, got, want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples should be NaN")
	}
}

func TestTailQuantileLeavesTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{10000, 0.999, true},
		{9999, 0.99, true},
		{1000, 0.99, true},
		{999, 0.975, true},
		{400, 0.975, true},
		{200, 0.95, true},
		{150, 0.9, true},
		{100, 0.9, true},
		{40, 0.75, true},
		{20, 0.5, true},
		{19, 0, false},
		{0, 0, false},
	}
	for _, c := range cases {
		q, ok := tailQuantile(c.n)
		if q != c.want || ok != c.ok {
			t.Errorf("tailQuantile(%d) = %v, %v; want %v, %v", c.n, q, ok, c.want, c.ok)
		}
		if ok && c.n-int(math.Ceil(q*float64(c.n))) < minBeyond {
			t.Errorf("tailQuantile(%d) = %v leaves fewer than %d samples beyond", c.n, q, minBeyond)
		}
	}
}

func TestLatencyLineStatesCountAndWithholdsThinP99(t *testing.T) {
	many := make([]float64, 1000)
	for i := range many {
		many[i] = float64(i + 1)
	}
	if got := latencyLine("frame", summarize(many)); got != "frame_p50_ms 500.0000 ms, frame_p99_ms 990.0000 ms (n=1000)" {
		t.Errorf("1000 samples: %q", got)
	}
	few := many[:150]
	if got := latencyLine("frame", summarize(few)); got != "frame_p50_ms 75.0000 ms, frame_p99_ms n/a, frame_p90_ms 135.0000 ms (n=150)" {
		t.Errorf("150 samples: %q", got)
	}
	if got := latencyLine("x", summarize(few[:5])); !strings.Contains(got, "x_p99_ms n/a (n=5)") {
		t.Errorf("5 samples: %q", got)
	}
}

// fakeClock advances only when told to: by sleeping, which wakes
// oversleep late, or by the operation under test charging its service
// time.
type fakeClock struct {
	now       time.Time
	oversleep time.Duration
}

func (c *fakeClock) Now() time.Time { return c.now }

func (c *fakeClock) SleepUntil(t time.Time) {
	if t.After(c.now) {
		c.now = t.Add(c.oversleep)
	}
}

func TestOpenLoopChargesAStallToTheRequestsQueuedBehindIt(t *testing.T) {
	t0 := time.Unix(1000, 0)
	c := &fakeClock{now: t0}
	ms := time.Millisecond
	cost := []time.Duration{35 * ms, ms, ms, ms, ms, ms}
	var lat latencies
	var late []float64
	var issued []time.Duration
	openLoop(c, t0, t0.Add(60*ms), 10*ms, func(i int, at time.Time) outcome {
		issued = append(issued, at.Sub(t0))
		c.now = c.now.Add(cost[i])
		return opOK
	}, &lat, &late)

	// Every request counts from its due time: the first three behind
	// the stall could not be sent then, the rest went out on time.
	if want := []time.Duration{0, 10 * ms, 20 * ms, 30 * ms, 40 * ms, 50 * ms}; !reflect.DeepEqual(issued, want) {
		t.Fatalf("issue times %v, want %v", issued, want)
	}
	// The 35 ms stall of the first request delays the next three: each
	// is timed from when it was due, not from when it went out.
	if want := []float64{35, 26, 17, 8, 1, 1}; !reflect.DeepEqual(lat.ms, want) {
		t.Errorf("latencies %v, want %v", lat.ms, want)
	}
	if want := []float64{0, 25, 16, 7, 0, 0}; !reflect.DeepEqual(late, want) {
		t.Errorf("lateness %v, want %v", late, want)
	}
	if lat.Attempted != 6 || lat.Failed() != 0 {
		t.Errorf("tally %+v, want 6 attempted, none failed", lat.tally)
	}
}

func TestOpenLoopDoesNotChargeTheGeneratorsOwnOversleep(t *testing.T) {
	t0 := time.Unix(1000, 0)
	ms := time.Millisecond
	c := &fakeClock{now: t0, oversleep: 2 * ms}
	var lat latencies
	var late []float64
	openLoop(c, t0.Add(5*ms), t0.Add(35*ms), 10*ms, func(i int, issued time.Time) outcome {
		c.now = c.now.Add(ms)
		return opOK
	}, &lat, &late)
	// The generator woke 2 ms late every time; the system answered in
	// 1 ms. The lateness is the generator's, reported on its own.
	if want := []float64{1, 1, 1}; !reflect.DeepEqual(lat.ms, want) {
		t.Errorf("latencies %v, want %v", lat.ms, want)
	}
	if want := []float64{2, 2, 2}; !reflect.DeepEqual(late, want) {
		t.Errorf("lateness %v, want %v", late, want)
	}
}

func TestFailuresCountAgainstAttemptsButNotLatency(t *testing.T) {
	var lat latencies
	lat.record(opOK, 2*time.Millisecond)
	lat.record(opError, time.Second)
	lat.record(opDeclined, time.Second)
	lat.record(opWrong, time.Second)
	lat.record(opOK, 4*time.Millisecond)
	if lat.Attempted != 5 || lat.Errors != 1 || lat.Declines != 1 || lat.Wrong != 1 || lat.Failed() != 3 {
		t.Fatalf("tally %+v", lat.tally)
	}
	if got := lat.FailedFrac(); got != 0.6 {
		t.Errorf("failed frac %v, want 0.6", got)
	}
	if want := []float64{2, 4}; !reflect.DeepEqual(lat.ms, want) {
		t.Errorf("latencies %v, want only the successes %v", lat.ms, want)
	}

	// Frames found wrong after the window are re-classified before
	// they are collected.
	l := &frameLog{}
	l.add(opOK, time.Millisecond)
	at := l.add(opOK, 3*time.Millisecond)
	l.outcomes[at] = opWrong
	got := collect([]*frameLog{l})
	if got.Wrong != 1 || got.Attempted != 2 || !reflect.DeepEqual(got.ms, []float64{1}) {
		t.Errorf("collected %+v", got)
	}
	var sum tally
	sum.add(got.tally)
	sum.add(lat.tally)
	if sum.Attempted != 7 || sum.Failed() != 4 {
		t.Errorf("summed tally %+v", sum)
	}
	if (tally{}).FailedFrac() != 0 {
		t.Error("an empty tally has no failures")
	}
}

func TestStealParsing(t *testing.T) {
	const a = "cpu  100 0 50 800 10 0 5 35 7 0\ncpu0 50 0 25 400 5 0 2 18 0 0\nintr 1 2 3\n"
	const b = "cpu  200 0 100 1600 20 0 10 70 9 0\ncpu0 1 1 1 1 1 1 1 1 1 1\n"
	x, err := parseCPUStat(strings.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	// Guest time (the 9th field) is already inside user time.
	if x.Total != 1000 || x.Steal != 35 {
		t.Fatalf("parsed %+v, want total 1000, steal 35", x)
	}
	y, err := parseCPUStat(strings.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if got := stealFrac(x, y); got != 0.035 {
		t.Errorf("steal frac %v, want 0.035", got)
	}
	if got := stealFrac(y, y); got != 0 {
		t.Errorf("steal over no time %v, want 0", got)
	}
	// Kernels before 2.6.11 have no steal column.
	old, err := parseCPUStat(strings.NewReader("cpu 1 2 3 4\n"))
	if err != nil || old.Steal != 0 || old.Total != 10 {
		t.Errorf("four-field line: %+v, %v", old, err)
	}
	for _, bad := range []string{"cpu 1 2\n", "cpu 1 2 x 4 5\n", "cpu0 1 2 3 4\n", ""} {
		if _, err := parseCPUStat(strings.NewReader(bad)); err == nil {
			t.Errorf("parseCPUStat(%q) accepted a malformed stat", bad)
		}
	}
}

func TestBlockingPathAttributesEveryNanosecondOnce(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{trace: 1, id: 1, layer: "root", start: at(0), end: at(10)},
		{trace: 1, id: 2, parent: 1, layer: "a", start: at(1), end: at(4)},
		{trace: 1, id: 3, parent: 1, layer: "b", start: at(2), end: at(9)},
		{trace: 1, id: 4, parent: 3, layer: "c", start: at(3), end: at(5)},
		{trace: 1, id: 5, parent: 1, layer: "d", start: at(9), end: at(10)},
	}
	roots := buildTrees(spans)
	per, total := layerTimes(roots)
	if len(per) != 1 || total[0] != 10*time.Millisecond {
		t.Fatalf("got %d requests, total %v", len(per), total)
	}
	// d blocks the end; b before it (with c inside it); a only for the
	// millisecond before b started; the root for the first.
	want := map[string]time.Duration{
		"d": time.Millisecond, "b": 5 * time.Millisecond, "c": 2 * time.Millisecond,
		"a": time.Millisecond, "root": time.Millisecond,
	}
	if !reflect.DeepEqual(per[0], want) {
		t.Errorf("blocking path %v, want %v", per[0], want)
	}
}

// TestBenchmarkJSONMatchesTheReport keeps BENCHMARK.json and the
// metrics the program prints in step.
func TestBenchmarkJSONMatchesTheReport(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
			Bound      float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for n := range workloads {
		have = append(have, n)
	}
	sort.Strings(names)
	sort.Strings(have)
	if !reflect.DeepEqual(names, have) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, have)
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		if b.EndToEnd[i].Name != m.name || b.EndToEnd[i].Unit != m.unit {
			t.Errorf("end_to_end[%d] = %s %s, program reports %s %s", i, b.EndToEnd[i].Name, b.EndToEnd[i].Unit, m.name, m.unit)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if b.PerLayer[i].Name != m.name || b.PerLayer[i].Unit != m.unit {
			t.Errorf("per_layer[%d] = %s %s, program reports %s %s", i, b.PerLayer[i].Name, b.PerLayer[i].Unit, m.name, m.unit)
		}
	}
}
