package main

import (
	"sort"
	"strings"
	"time"

	"repro/internal/telemetry"
)

// layerBreakdown reports a traced phase of requests whose root span is
// rootName: for the requests around the traced median, the mean time
// each layer held the blocking path (these sum to the median request's
// duration), each layer's median and mean over all requests, the
// residual of the untraced median that no layer accounts for, the
// tracing overhead, and one request from the slowest 1% as a span tree.
// The headline request kind also sets the trace.* metrics.
func layerBreakdown(rep *report, tr *tracer, rootName string, untracedP50 float64, headline bool) {
	all := tr.trees()
	roots := map[uint64]*node{}
	for id, r := range all {
		if r.name == rootName {
			roots[id] = r
		}
	}
	per, total := layerTimes(roots)
	if len(per) == 0 {
		rep.fail("traced phase recorded no %q requests", rootName)
		return
	}
	layers := map[string]bool{}
	for _, m := range per {
		for l := range m {
			layers[l] = true
		}
	}
	names := make([]string, 0, len(layers))
	for l := range layers {
		names = append(names, l)
	}
	sort.Strings(names)
	var totals []float64
	for _, d := range total {
		totals = append(totals, ms(d))
	}
	tracedP50 := median(totals)
	// The median band: requests from the 40th to the 60th percentile of
	// traced duration.
	order := make([]int, len(per))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return total[order[a]] < total[order[b]] })
	band := order[len(order)*2/5 : max(len(order)*3/5, len(order)*2/5+1)]

	rep.printf("traced %s requests: %d, traced p50 %.3f ms, untraced p50 %.3f ms", rootName, len(per), tracedP50, untracedP50)
	rep.printf("  %-14s %13s %12s %12s", "layer", "at_median_ms", "p50_ms", "mean_ms")
	attributed := 0.0
	for _, l := range names {
		var xs []float64
		sum := 0.0
		for _, m := range per {
			xs = append(xs, ms(m[l]))
			sum += ms(m[l])
		}
		atMedian := 0.0
		for _, i := range band {
			atMedian += ms(per[i][l])
		}
		atMedian /= float64(len(band))
		rep.printf("  %-14s %13.3f %12.3f %12.3f", l, atMedian, median(xs), sum/float64(len(per)))
		if l != "unattributed" {
			attributed += atMedian
		}
	}
	residual := untracedP50 - attributed
	rep.printf("  residual vs untraced p50: %.3f ms (%.1f%%); tracing overhead %.3f× (traced p50 / untraced p50)",
		residual, 100*residual/untracedP50, tracedP50/untracedP50)
	if headline {
		rep.set("trace.residual_ms", "ms", residual)
		rep.set("trace.residual_frac", "ratio", residual/untracedP50)
		rep.set("trace.overhead_ratio", "ratio", tracedP50/untracedP50)
	}

	slow := make([]*node, 0, len(roots))
	for _, r := range roots {
		slow = append(slow, r)
	}
	sort.Slice(slow, func(i, j int) bool { return slow[i].dur() < slow[j].dur() })
	ex := slow[len(slow)*99/100]
	rep.printf("example %s from the slowest 1%% (%.3f ms):\n%s", rootName, ms(ex.dur()),
		strings.TrimRight(formatTree(ex), "\n"))
}

// spanStats summarizes the spans of one name across requests: the
// median per-request total, and the median of the per-request maximum.
func spanStats(roots map[uint64]*node, name string) (sumP50, maxP50 float64) {
	var sums, maxes []float64
	for _, r := range roots {
		var sum, mx time.Duration
		found := false
		var walk func(*node)
		walk = func(x *node) {
			if x.name == name {
				found = true
				sum += x.dur()
				if x.dur() > mx {
					mx = x.dur()
				}
			}
			for _, k := range x.kids {
				walk(k)
			}
		}
		walk(r)
		if found {
			sums = append(sums, ms(sum))
			maxes = append(maxes, ms(mx))
		}
	}
	if len(sums) == 0 {
		return 0, 0
	}
	return median(sums), median(maxes)
}

// registryDelta sums the change of a counter over every label, or of a
// histogram's count and total, between two snapshots of one registry.
type registryDelta struct{ before, after telemetry.Snapshot }

func (d registryDelta) counter(service, name string) int64 {
	var v int64
	for _, m := range telemetry.Diff(d.before, d.after).Metrics {
		if m.Name == name && (service == "" || m.Service == service) && m.Kind == telemetry.KindCounter {
			v += m.Value
		}
	}
	return v
}

func (d registryDelta) histogram(service, name string) (count int64, sum time.Duration) {
	for _, m := range telemetry.Diff(d.before, d.after).Metrics {
		if m.Name == name && (service == "" || m.Service == service) && m.Kind == telemetry.KindHistogram {
			count += m.Count
			sum += time.Duration(m.SumNanos)
		}
	}
	return count, sum
}

// rasterMetrics reports the rasterizer's work over frames completed
// frames from render-service registry deltas.
func rasterMetrics(rep *report, deltas []registryDelta, frames int) {
	if frames == 0 {
		return
	}
	var tris, pixels, early int64
	var band time.Duration
	for _, d := range deltas {
		tris += d.counter("", "raster_triangles_total")
		pixels += d.counter("", "raster_pixels_total")
		early += d.counter("", "raster_earlyz_tris_total")
		_, s := d.histogram("", "raster_band_ns")
		band += s
	}
	f := float64(frames)
	rep.set("raster.band_ms_per_frame", "ms", ms(band)/f)
	rep.set("raster.triangles_per_frame", "count", float64(tris)/f)
	rep.set("raster.pixels_per_frame", "count", float64(pixels)/f)
	if tris > 0 {
		rep.set("raster.earlyz_tri_frac", "ratio", float64(early)/float64(tris))
	}
	var declined, admitted int64
	for _, d := range deltas {
		declined += d.counter("", "admission_declined_total")
		admitted += d.counter("", "admission_admitted_total")
	}
	if declined+admitted > 0 {
		rep.set("renderservice.declined_frac", "ratio", float64(declined)/float64(declined+admitted))
	}
}
