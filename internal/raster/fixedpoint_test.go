package raster

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/mathx"
	"repro/internal/telemetry"
	"repro/internal/vclock"
)

func TestFloorCeilDiv(t *testing.T) {
	cases := []struct {
		a, b, floor, ceil int64
	}{
		{0, 1, 0, 0},
		{7, 2, 3, 4},
		{-7, 2, -4, -3},
		{6, 3, 2, 2},
		{-6, 3, -2, -2},
		{1, 64, 0, 1},
		{-1, 64, -1, 0},
		{math.MaxInt64, 1, math.MaxInt64, math.MaxInt64},
	}
	for _, c := range cases {
		if got := floorDiv(c.a, c.b); got != c.floor {
			t.Errorf("floorDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.floor)
		}
		if got := ceilDiv(c.a, c.b); got != c.ceil {
			t.Errorf("ceilDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.ceil)
		}
	}
}

// TestSpanBoundsBruteForce cross-checks the integer span solution
// against per-pixel evaluation of the same three constraints.
func TestSpanBoundsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 5000; trial++ {
		n := int64(1 + rng.Intn(40))
		var E, D [3]int64
		for k := 0; k < 3; k++ {
			E[k] = int64(rng.Intn(20000) - 10000)
			D[k] = int64(rng.Intn(400) - 200)
		}
		lo, hi := spanBounds(E[0], D[0], E[1], D[1], E[2], D[2], n)
		wantLo, wantHi := int64(-1), int64(-1)
		for i := int64(0); i < n; i++ {
			in := true
			for k := 0; k < 3; k++ {
				if E[k]+i*D[k] > 0 {
					in = false
					break
				}
			}
			if in {
				if wantLo == -1 {
					wantLo = i
				}
				wantHi = i
			} else if wantLo != -1 {
				// The intersection of half-lines is one contiguous run;
				// once it ends nothing past it can be inside.
				for j := i; j < n; j++ {
					all := true
					for k := 0; k < 3; k++ {
						if E[k]+j*D[k] > 0 {
							all = false
						}
					}
					if all {
						t.Fatalf("trial %d: span not contiguous", trial)
					}
				}
				break
			}
		}
		if wantLo == -1 {
			if lo <= hi {
				t.Fatalf("trial %d: spanBounds=[%d,%d], want empty", trial, lo, hi)
			}
			continue
		}
		if lo != wantLo || hi != wantHi {
			t.Fatalf("trial %d: spanBounds=[%d,%d], brute force=[%d,%d]", trial, lo, hi, wantLo, wantHi)
		}
	}
}

// TestWorkCountersWithoutClock pins the nil-Clock skip path: with
// Metrics set but Clock nil, the band timing histogram must be skipped
// while the work counters are still recorded. (The pre-fixed-point
// renderer dropped both.)
func TestWorkCountersWithoutClock(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	met := telemetry.NewRegistry(clk)
	fb := NewFramebuffer(64, 64)
	r := New(fb)
	r.Opts.Metrics = met
	r.Opts.Service = "render"
	r.Opts.Clock = nil
	r.RenderMesh(frontTriangle(), mathx.Identity(), lookingCamera())

	snap := met.Snapshot()
	if got := snap.CounterValue("render", "raster_triangles_total", ""); got != 1 {
		t.Errorf("raster_triangles_total = %d, want 1", got)
	}
	if got := snap.CounterValue("render", "raster_pixels_total", ""); got == 0 {
		t.Error("raster_pixels_total = 0, want > 0 with nil Clock")
	}
	if got := snap.CounterValue("render", "raster_spans_total", ""); got == 0 {
		t.Error("raster_spans_total = 0, want > 0 with nil Clock")
	}
	if m, ok := snap.Get("render", "raster_band_ns", ""); ok && m.Count > 0 {
		t.Errorf("raster_band_ns recorded %d observations with nil Clock, want none", m.Count)
	}
}

// TestBandTimingsWithClock is the complementary path: with a clock,
// both the counters and the band histogram are recorded.
func TestBandTimingsWithClock(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	met := telemetry.NewRegistry(clk)
	fb := NewFramebuffer(64, 64)
	r := New(fb)
	r.Opts.Metrics = met
	r.Opts.Service = "render"
	r.Opts.Clock = clk
	r.Opts.Workers = 4
	r.RenderMesh(frontTriangle(), mathx.Identity(), lookingCamera())

	snap := met.Snapshot()
	if got := snap.CounterValue("render", "raster_pixels_total", ""); got == 0 {
		t.Error("raster_pixels_total = 0")
	}
	m, ok := snap.Get("render", "raster_band_ns", "")
	if !ok || m.Count != 4 {
		t.Errorf("raster_band_ns observations = %+v, want one per band (4)", m)
	}
}

// TestEarlyZRejectsOccluded renders a near quad and then many far
// triangles behind it in a single mesh: the far geometry must be
// rejected by the early-z counters, and — because early-z is
// conservative — the image must still match the reference core, which
// has no early-z at all.
func TestEarlyZRejectsOccluded(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	met := telemetry.NewRegistry(clk)

	// One mesh: a screen-filling near quad first, then 600 far
	// triangles behind it. The quad must cover every band pixel —
	// the per-band depth bound stays +Inf (early-z disarmed) until the
	// whole band has been written.
	m := sharedEdgeMesh()
	m.Transform(mathx.Scale(mathx.V3(4, 4, 1)))
	m.SetUniformColor(mathx.V3(0.2, 0.4, 0.9))
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 600; i++ {
		base := uint32(len(m.Positions))
		cx := rng.Float64()*1.2 - 0.6
		cy := rng.Float64()*1.2 - 0.6
		m.Positions = append(m.Positions,
			mathx.V3(cx-0.1, cy-0.1, -3), mathx.V3(cx+0.1, cy-0.1, -3), mathx.V3(cx, cy+0.1, -3))
		m.Colors = append(m.Colors,
			mathx.V3(1, 0, 0), mathx.V3(1, 0, 0), mathx.V3(1, 0, 0))
		m.Indices = append(m.Indices, base, base+1, base+2)
	}

	draw := func(r *Renderer) {
		r.Opts.Ambient = 1
		r.RenderMesh(m, mathx.Identity(), lookingCamera())
	}
	fixed, ref := renderBoth(64, 64, func(r *Renderer) {
		r.Opts.Metrics = met
		r.Opts.Service = "render"
	}, draw)
	assertParity(t, "earlyz", fixed, ref)

	snap := met.Snapshot()
	rejected := snap.CounterValue("render", "raster_earlyz_tris_total", "") +
		snap.CounterValue("render", "raster_earlyz_spans_total", "")
	if rejected == 0 {
		t.Error("early-z rejected nothing in a heavily occluded scene")
	}
}

// TestEarlyZTieNeverSkipped draws a screen-filling quad, 600 occluded
// triangles that arm early-z, and then the same quad again in another
// color. The second quad ties the stored depth exactly at every pixel,
// so early-z must let it through to the tie rule: the smaller color
// wins whichever quad is drawn first, in both cores.
func TestEarlyZTieNeverSkipped(t *testing.T) {
	bright, dark := mathx.V3(0.9, 0.8, 0.7), mathx.V3(0.2, 0.4, 0.9)
	build := func(first, second mathx.Vec3) *geom.Mesh {
		m := &geom.Mesh{}
		quad := func(c mathx.Vec3) {
			q := sharedEdgeMesh()
			q.Transform(mathx.Scale(mathx.V3(4, 4, 1)))
			base := uint32(len(m.Positions))
			for i, p := range q.Positions {
				m.Positions = append(m.Positions, p)
				m.Colors = append(m.Colors, c)
				m.Indices = append(m.Indices, base+uint32(i))
			}
		}
		quad(first)
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 600; i++ {
			base := uint32(len(m.Positions))
			cx, cy := rng.Float64()*1.2-0.6, rng.Float64()*1.2-0.6
			m.Positions = append(m.Positions,
				mathx.V3(cx-0.1, cy-0.1, -3), mathx.V3(cx+0.1, cy-0.1, -3), mathx.V3(cx, cy+0.1, -3))
			m.Colors = append(m.Colors, mathx.V3(1, 0, 0), mathx.V3(1, 0, 0), mathx.V3(1, 0, 0))
			m.Indices = append(m.Indices, base, base+1, base+2)
		}
		quad(second)
		return m
	}
	var images []*Framebuffer
	for _, m := range []*geom.Mesh{build(bright, dark), build(dark, bright)} {
		met := telemetry.NewRegistry(vclock.NewVirtual(time.Unix(0, 0)))
		fixed, ref := renderBoth(64, 64, func(r *Renderer) {
			r.Opts.Metrics = met
			r.Opts.Service = "render"
		}, func(r *Renderer) {
			r.Opts.Ambient = 1
			r.RenderMesh(m, mathx.Identity(), lookingCamera())
		})
		assertParity(t, "earlyz-tie", fixed, ref)
		if met.Snapshot().CounterValue("render", "raster_earlyz_tris_total", "") == 0 {
			t.Fatal("early-z never armed: the tie was not tested against it")
		}
		images = append(images, fixed)
	}
	for i := range images[0].Color {
		if images[0].Color[i] != images[1].Color[i] {
			t.Fatalf("color byte %d depends on draw order: %d vs %d", i, images[0].Color[i], images[1].Color[i])
		}
	}
	want := [3]uint8{toByte(dark.X), toByte(dark.Y), toByte(dark.Z)}
	if r, g, b := images[0].At(32, 32); [3]uint8{r, g, b} != want {
		t.Errorf("tied pixel = %v, want the smaller color %v", [3]uint8{r, g, b}, want)
	}
}

// TestSharedEdgeSeamExactlyOnce pins the top-left fill rule's seam
// contract: rendering the two halves of a quad separately, no pixel
// may be covered by both (double shade), and their union must equal
// the coverage of rendering the whole quad (no missed seam pixels).
func TestSharedEdgeSeamExactlyOnce(t *testing.T) {
	quad := sharedEdgeMesh()
	half := func(lo, hi int) *Framebuffer {
		m := *quad
		m.Indices = quad.Indices[lo:hi]
		fb := NewFramebuffer(64, 64)
		r := New(fb)
		r.Opts.Ambient = 1
		r.RenderMesh(&m, mathx.Identity(), lookingCamera())
		return fb
	}
	a := half(0, 3)
	b := half(3, 6)
	both := renderSharedEdge(nil)

	covered := func(fb *Framebuffer, i int) bool { return !math.IsInf(float64(fb.Depth[i]), 1) }
	for i := range both.Depth {
		inA, inB, inBoth := covered(a, i), covered(b, i), covered(both, i)
		x, y := i%64, i/64
		if inA && inB {
			t.Fatalf("pixel (%d,%d) shaded by both seam triangles", x, y)
		}
		if (inA || inB) != inBoth {
			t.Fatalf("pixel (%d,%d): separate coverage %v/%v but joint %v", x, y, inA, inB, inBoth)
		}
	}
	// The seam itself must be covered: the quad's interior has no holes.
	if got, want := both.CoveredPixels(), a.CoveredPixels()+b.CoveredPixels(); got != want {
		t.Fatalf("joint coverage %d != sum of halves %d", got, want)
	}
}
