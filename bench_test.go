// Package repro's top-level benchmarks: one benchmark per table/figure of
// the paper (driving the perfmodel regenerators) plus real-implementation
// measurements of the subsystems on this machine — rasterizer, codecs,
// compositor, marshallers (including the §5.1 per-pixel and §5.5
// introspection ablations), scene ops, UDDI round trips, and the full
// thin-client frame path.
//
// Run: go test -bench=. -benchmem
package repro

import (
	"io"
	"net"
	"net/http"
	"testing"

	thin "repro/internal/client"
	"repro/internal/collab"
	"repro/internal/compositor"
	"repro/internal/device"
	"repro/internal/geom"
	"repro/internal/geom/genmodel"
	"repro/internal/geom/objply"
	"repro/internal/imgcodec"
	"repro/internal/marshal"
	"repro/internal/mathx"
	"repro/internal/perfmodel"
	"repro/internal/raster"
	"repro/internal/renderservice"
	"repro/internal/scene"
	"repro/internal/uddi"
	"repro/internal/wsdl"
)

// --- Paper tables (modeled regenerations) ---

func BenchmarkTable1Models(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := perfmodel.Table1(0.02)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 2 {
			b.Fatal("bad table")
		}
	}
}

func BenchmarkTable2PDA(b *testing.B) {
	var fps float64
	for i := 0; i < b.N; i++ {
		rows := perfmodel.Table2()
		fps = rows[0].FPS
	}
	b.ReportMetric(fps, "modeled-hand-fps")
}

func BenchmarkTable3Offscreen(b *testing.B) {
	var r float64
	for i := 0; i < b.N; i++ {
		rows := perfmodel.Table3()
		r = rows[0].Ratio
	}
	b.ReportMetric(r*100, "elle-centrino-offscreen-%")
}

func BenchmarkTable4Interleave(b *testing.B) {
	var r float64
	for i := 0; i < b.N; i++ {
		rows := perfmodel.Table4()
		r = rows[0].Interleaved
	}
	b.ReportMetric(r*100, "elle-centrino-interleaved-%")
}

func BenchmarkTable5Recruit(b *testing.B) {
	scan, full, err := perfmodel.CountUDDICalls()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var boot float64
	for i := 0; i < b.N; i++ {
		rows, err := perfmodel.Table5(scan, full)
		if err != nil {
			b.Fatal(err)
		}
		boot = rows[1].Bootstrap.Seconds()
	}
	b.ReportMetric(boot, "modeled-hand-bootstrap-s")
}

func BenchmarkFigure5TileLag(b *testing.B) {
	var lag float64
	for i := 0; i < b.N; i++ {
		rows := perfmodel.Figure5Lag()
		lag = rows[1].Lag.Seconds()
	}
	b.ReportMetric(lag*1000, "hand-tile-lag-ms")
}

// --- Real geometry pipeline ---

func benchMesh(b *testing.B, tris int) *geom.Mesh {
	b.Helper()
	return genmodel.Galleon(tris)
}

func BenchmarkMarchingCubes32(b *testing.B) {
	g := geom.NewVoxelGrid(32, 32, 32, mathx.V3(-1.5, -1.5, -1.5), 3.0/31)
	g.Fill(geom.SphereField(mathx.Vec3{}, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := geom.MarchingCubes(g, 0)
		if m.TriangleCount() == 0 {
			b.Fatal("empty surface")
		}
	}
}

func BenchmarkDecimate(b *testing.B) {
	g := geom.NewVoxelGrid(32, 32, 32, mathx.V3(-1.5, -1.5, -1.5), 3.0/31)
	g.Fill(geom.SphereField(mathx.Vec3{}, 1))
	m := geom.MarchingCubes(g, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := m.Decimate(m.TriangleCount() / 4)
		if d.TriangleCount() == 0 {
			b.Fatal("decimated to nothing")
		}
	}
}

func BenchmarkOBJWrite(b *testing.B) {
	m := benchMesh(b, 5500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := objply.WriteOBJ(io.Discard, m); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Real rasterizer ---

func benchRenderSetup(tris int) (*geom.Mesh, raster.Camera) {
	m := genmodel.Galleon(tris)
	cam := raster.DefaultCamera().FitToBounds(m.Bounds(), mathx.V3(0.3, 0.2, 1))
	return m, cam
}

func BenchmarkRasterize200x200(b *testing.B) {
	m, cam := benchRenderSetup(5500)
	fb := raster.NewFramebuffer(200, 200)
	r := raster.New(fb)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fb.Clear(0, 0, 0)
		r.RenderMesh(m, mathx.Identity(), cam)
	}
	b.ReportMetric(float64(m.TriangleCount()), "triangles")
}

func BenchmarkRasterize200x200Parallel4(b *testing.B) {
	m, cam := benchRenderSetup(5500)
	fb := raster.NewFramebuffer(200, 200)
	r := raster.New(fb)
	r.Opts.Workers = 4
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fb.Clear(0, 0, 0)
		r.RenderMesh(m, mathx.Identity(), cam)
	}
}

func BenchmarkRasterize400x400Elle(b *testing.B) {
	m := genmodel.Elle(genmodel.PaperElleTriangles)
	cam := raster.DefaultCamera().FitToBounds(m.Bounds(), mathx.V3(0.3, 0.2, 1))
	fb := raster.NewFramebuffer(400, 400)
	r := raster.New(fb)
	r.Opts.Workers = 4
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fb.Clear(0, 0, 0)
		r.RenderMesh(m, mathx.Identity(), cam)
	}
}

func BenchmarkAvatarRender(b *testing.B) {
	s := scene.New()
	cam := raster.DefaultCamera()
	op, err := collab.JoinSession(s, "peer", cam.Orbit(0.5, 0.1))
	if err != nil {
		b.Fatal(err)
	}
	if err := s.ApplyOp(op); err != nil {
		b.Fatal(err)
	}
	fb := raster.NewFramebuffer(200, 200)
	r := raster.New(fb)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fb.Clear(0, 0, 0)
		collab.RenderAvatars(r, s, cam, "me")
	}
}

// --- Codecs (X2) ---

func benchFrames(b *testing.B) (cur, prev []byte) {
	b.Helper()
	m, cam := benchRenderSetup(5500)
	fb1 := raster.NewFramebuffer(200, 200)
	raster.New(fb1).RenderMesh(m, mathx.Identity(), cam)
	fb2 := raster.NewFramebuffer(200, 200)
	raster.New(fb2).RenderMesh(m, mathx.Identity(), cam.Orbit(0.02, 0))
	return fb2.Color, fb1.Color
}

func BenchmarkCodecRaw(b *testing.B) {
	cur, _ := benchFrames(b)
	b.SetBytes(int64(len(cur)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := imgcodec.Encode(imgcodec.Raw, 200, 200, cur, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCodecRLE(b *testing.B) {
	cur, _ := benchFrames(b)
	b.SetBytes(int64(len(cur)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := imgcodec.Encode(imgcodec.RLE, 200, 200, cur, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCodecDeltaRLE(b *testing.B) {
	cur, prev := benchFrames(b)
	b.SetBytes(int64(len(cur)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := imgcodec.Encode(imgcodec.DeltaRLE, 200, 200, cur, prev); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Compositing ---

func BenchmarkDepthComposite(b *testing.B) {
	m, cam := benchRenderSetup(5500)
	halves := m.SplitSpatially(2)
	mk := func(part *geom.Mesh) *raster.Framebuffer {
		fb := raster.NewFramebuffer(400, 300)
		raster.New(fb).RenderMesh(part, mathx.Identity(), cam)
		return fb
	}
	a, c := mk(halves[0]), mk(halves[1%len(halves)])
	b.SetBytes(int64(len(a.Color) + 4*len(a.Depth)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst := a.Clone()
		if err := compositor.DepthComposite(dst, c); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Marshalling ablations (X1, X4) ---

func benchScene(b *testing.B, tris int) *scene.Scene {
	b.Helper()
	s := scene.New()
	id := s.AllocID()
	err := s.ApplyOp(&scene.AddNodeOp{
		Parent: scene.RootID, ID: id, Name: "m", Transform: mathx.Identity(),
		Payload: &scene.MeshPayload{Mesh: genmodel.Galleon(tris)},
	})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func BenchmarkMarshalSceneDirect(b *testing.B) {
	s := benchScene(b, 20000)
	var size int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var cw countWriter
		if err := marshal.WriteScene(&cw, s); err != nil {
			b.Fatal(err)
		}
		size = cw.n
	}
	b.SetBytes(size)
}

func BenchmarkMarshalSceneIntrospection(b *testing.B) {
	s := benchScene(b, 20000)
	var size int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var cw countWriter
		if err := marshal.ReflectWriteScene(&cw, s); err != nil {
			b.Fatal(err)
		}
		size = cw.n
	}
	b.SetBytes(size)
}

// benchFrame is the 400×400 Elle frame+depth a render service returns
// for compositing under dataset distribution.
func benchFrame(b *testing.B) *raster.Framebuffer {
	b.Helper()
	model := genmodel.Elle(genmodel.PaperElleTriangles)
	fb := raster.NewFramebuffer(400, 400)
	raster.New(fb).RenderMesh(model, mathx.Identity(),
		raster.DefaultCamera().FitToBounds(model.Bounds(), mathx.V3(0.3, 0.2, 1)))
	return fb
}

func BenchmarkMarshalFrameWrite(b *testing.B) {
	fb := benchFrame(b)
	b.SetBytes(int64(marshal.FrameSize(fb, true)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := marshal.AppendFrame(nil, fb, true); len(out) == 0 {
			b.Fatal("empty frame")
		}
	}
}

func BenchmarkMarshalFrameRead(b *testing.B) {
	data := marshal.AppendFrame(nil, benchFrame(b), true)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := marshal.DecodeFrame(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMarshalSceneRead(b *testing.B) {
	data, err := marshal.AppendScene(nil, benchScene(b, 20000))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := marshal.DecodeScene(data); err != nil {
			b.Fatal(err)
		}
	}
}

type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

func BenchmarkPixelMarshalDirect(b *testing.B) {
	fb := raster.NewFramebuffer(200, 200)
	b.SetBytes(int64(len(fb.Color)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := marshal.EncodeFrameDirect(fb); len(out) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkPixelMarshalPerPixel(b *testing.B) {
	fb := raster.NewFramebuffer(200, 200)
	b.SetBytes(int64(len(fb.Color)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := marshal.EncodeFramePerPixel(fb); len(out) == 0 {
			b.Fatal("empty")
		}
	}
}

// --- Scene updates ---

func BenchmarkSceneOpApply(b *testing.B) {
	s := scene.New()
	id := s.AllocID()
	if err := s.ApplyOp(&scene.AddNodeOp{Parent: scene.RootID, ID: id, Transform: mathx.Identity()}); err != nil {
		b.Fatal(err)
	}
	op := &scene.SetTransformOp{ID: id, Transform: mathx.RotateY(0.01)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.ApplyOp(op); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Real UDDI round trip ---

func BenchmarkUDDIScanReal(b *testing.B) {
	reg := uddi.NewRegistry()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	srv := &http.Server{Handler: uddi.NewServer(reg)}
	go srv.Serve(ln)
	defer srv.Close()
	proxy := uddi.Connect("http://" + ln.Addr().String())
	if _, err := proxy.RegisterService("RAVE", "r", "tcp://x:1", wsdl.RenderServicePortType); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := proxy.ScanAccessPoints(wsdl.RenderServicePortType); err != nil {
			b.Fatal(err)
		}
	}
}

// --- End-to-end thin client frame (real services over an in-memory pipe) ---

func BenchmarkThinClientFrame200(b *testing.B) {
	rs := renderservice.New(renderservice.Config{
		Name: "bench-rs", Device: device.AthlonDesktop, Workers: 4,
	})
	s := benchScene(b, 5500)
	cam := raster.DefaultCamera().FitToBounds(s.Bounds(), mathx.V3(0.3, 0.2, 1))
	sess, err := rs.OpenSession("bench", s, cam)
	if err != nil {
		b.Fatal(err)
	}
	defer sess.Close()
	cEnd, sEnd := net.Pipe()
	defer cEnd.Close()
	defer sEnd.Close()
	go rs.ServeClient(sEnd, 94e6)
	tc, err := thin.DialThin(cEnd, "bench-user", "bench")
	if err != nil {
		b.Fatal(err)
	}
	defer tc.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fb, err := tc.RequestFrame(200, 200, "raw")
		if err != nil {
			b.Fatal(err)
		}
		if fb.W != 200 {
			b.Fatal("bad frame")
		}
	}
	b.SetBytes(200 * 200 * 3)
}
