package main

import (
	"errors"
	"fmt"
	"hash/crc64"
	"math"
	"math/rand/v2"
	"net"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/device"
	"repro/internal/geom/genmodel"
	"repro/internal/mathx"
	"repro/internal/raster"
	"repro/internal/renderservice"
	"repro/internal/scene"
)

// Link and frame parameters shared by the thin-client workloads.
const (
	wirelessBps  = 11e6 // the paper's 802.11b PDA link
	viewSize     = 400
	viewClients  = 2
	sampleEvery  = 8 // verify every 8th frame per client
	warmupPeriod = time.Second
)

var crcTable = crc64.MakeTable(crc64.ECMA)

func checksum(b []byte) uint64 { return crc64.Checksum(b, crcTable) }

// galleonScene is the paper-size galleon as a one-node scene, with a
// camera framing it.
func galleonScene() (*scene.Scene, raster.Camera, error) {
	mesh := genmodel.Galleon(genmodel.PaperGalleonTriangles)
	sc := scene.New()
	op := &scene.AddNodeOp{Parent: scene.RootID, ID: sc.AllocID(), Name: "galleon",
		Transform: mathx.Identity(), Payload: &scene.MeshPayload{Mesh: mesh}}
	if err := sc.ApplyOp(op); err != nil {
		return nil, raster.Camera{}, err
	}
	cam := raster.DefaultCamera().FitToBounds(mesh.Bounds(), mathx.V3(0.3, 0.25, 1))
	return sc, cam, nil
}

// wireCamera is the camera a render service ends up with after cam
// crosses the wire, so reference renders use exactly the same pose.
func wireCamera(cam raster.Camera) raster.Camera {
	return renderservice.CameraFromState(renderservice.StateFromCamera(cam))
}

// orbit is one client's seeded camera path: a random yaw and pitch
// step per frame around the model. Pitch is kept within maxPitch of the
// start and its steps are large enough to cross that band within a few
// dozen frames, so every seed sweeps the same views in a run and
// per-frame costs stay comparable between seeds.
type orbit struct {
	rng   *rand.Rand
	cam   raster.Camera
	pitch float64
}

const maxPitch = 0.3 // radians

func newOrbit(seed uint64, stream uint64, cam raster.Camera) *orbit {
	return &orbit{rng: rand.New(rand.NewPCG(seed, stream)), cam: cam}
}

func (o *orbit) next() raster.Camera {
	yaw := 0.02 + 0.06*o.rng.Float64()
	pitch := 0.16 * (o.rng.Float64() - 0.5)
	if math.Abs(o.pitch+pitch) > maxPitch {
		pitch = -pitch
	}
	o.pitch += pitch
	o.cam = o.cam.Orbit(yaw, pitch)
	return o.cam
}

// sample is a frame kept for verification after the timed window.
type sample struct {
	cam raster.Camera
	sum uint64
	at  int // index into the client's outcome list
}

// frameLog is one client's record of a phase.
type frameLog struct {
	outcomes []outcome
	lat      []time.Duration
	samples  []sample
}

func (l *frameLog) add(o outcome, d time.Duration) int {
	l.outcomes = append(l.outcomes, o)
	l.lat = append(l.lat, d)
	return len(l.outcomes) - 1
}

// classify maps a frame error to its outcome.
func classify(err error) outcome {
	var ov *renderservice.ErrOverloaded
	if errors.As(err, &ov) {
		return opDeclined
	}
	return opError
}

type viewDeploy struct {
	rs      *renderservice.Service
	model   *scene.Scene
	cam     raster.Camera
	plain   *server   // renderservice.ServeClient
	traced  *server   // the traced run's own serving loop
	wire    linkStats // every plain link, both directions
	stats   linkStats // the traced links
	tr      *tracer
	clients []*client.Thin
	tviews  []*tracedViewer
}

func buildView(cfg runCfg) (*viewDeploy, error) {
	d := &viewDeploy{}
	var err error
	d.model, d.cam, err = galleonScene()
	if err != nil {
		return nil, err
	}
	d.rs = renderservice.New(renderservice.Config{Name: "render", Device: device.XeonDesktop, Workers: cfg.nproc})
	d.plain, err = serve(func(c net.Conn) { d.rs.ServeClient(wrapConn(c, &d.wire, nil), wirelessBps) })
	if err != nil {
		return nil, err
	}
	for i := 0; i < viewClients; i++ {
		name := fmt.Sprintf("view-%d", i)
		if _, err := d.rs.OpenSession(name, d.model, d.cam); err != nil {
			d.close()
			return nil, err
		}
		nc, err := dial(d.plain.addr())
		if err != nil {
			d.close()
			return nil, err
		}
		th, err := client.DialThin(wrapConn(nc, &d.wire, nil), "viewer-"+name, name)
		if err != nil {
			nc.Close()
			d.close()
			return nil, err
		}
		d.clients = append(d.clients, th)
	}
	if cfg.trace {
		d.tr = &tracer{}
		d.traced, err = serve(func(c net.Conn) { serveTraced(d.rs, c, &d.stats, d.tr, wirelessBps) })
		if err != nil {
			d.close()
			return nil, err
		}
		// The traced clients get sessions of their own: the adaptive
		// codec keeps per-session state that a second viewer would
		// share.
		for i := 0; i < viewClients; i++ {
			name := fmt.Sprintf("view-traced-%d", i)
			if _, err := d.rs.OpenSession(name, d.model, d.cam); err != nil {
				d.close()
				return nil, err
			}
			tv, err := dialTracedViewer(d.traced.addr(), "viewer-"+name, name, &d.stats, d.tr)
			if err != nil {
				d.close()
				return nil, err
			}
			d.tviews = append(d.tviews, tv)
		}
	}
	return d, nil
}

func (d *viewDeploy) close() {
	for _, c := range d.clients {
		_ = c.Close() // the server side is closed next either way
	}
	for _, v := range d.tviews {
		v.close()
	}
	if d.plain != nil {
		d.plain.close()
	}
	if d.traced != nil {
		d.traced.close()
	}
}

// viewPhase runs every client closed loop until end and returns their
// logs. frame is one client's request for one pose.
func viewPhase(cfg runCfg, phase uint64, end time.Time, frame func(i int, cam raster.Camera) ([]byte, error), base raster.Camera) []*frameLog {
	logs := make([]*frameLog, viewClients)
	var wg sync.WaitGroup
	for i := 0; i < viewClients; i++ {
		logs[i] = &frameLog{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			o := newOrbit(cfg.seed, phase*16+uint64(i), base)
			l := logs[i]
			for n := 0; time.Now().Before(end); n++ {
				cam := o.next()
				start := time.Now()
				px, err := frame(i, cam)
				d := time.Since(start)
				if err != nil {
					l.add(classify(err), d)
					continue
				}
				at := l.add(opOK, d)
				if n%sampleEvery == 0 {
					l.samples = append(l.samples, sample{cam: wireCamera(cam), sum: checksum(px), at: at})
				}
			}
		}(i)
	}
	wg.Wait()
	return logs
}

// verifyFrames renders every sampled pose afresh on a single-viewer
// render service and marks frames that differ as wrong. It returns the
// number of frames checked.
func verifyFrames(cfg runCfg, model *scene.Scene, w, h int, logs []*frameLog) (int, error) {
	ref := renderservice.New(renderservice.Config{Name: "reference", Device: device.XeonDesktop, Workers: cfg.nproc})
	sess, err := ref.OpenSession("reference", model, raster.DefaultCamera())
	if err != nil {
		return 0, err
	}
	defer sess.Close()
	checked := 0
	for _, l := range logs {
		for _, s := range l.samples {
			sess.SetCamera(s.cam)
			f, err := sess.RenderFrame(w, h, "reference")
			if err != nil {
				return checked, err
			}
			checked++
			if checksum(f.FB.Color) != s.sum {
				l.outcomes[s.at] = opWrong
			}
		}
	}
	return checked, nil
}

// collect turns finished logs into latencies and an outcome tally.
func collect(logs []*frameLog) latencies {
	var lat latencies
	for _, l := range logs {
		for i, o := range l.outcomes {
			lat.record(o, l.lat[i])
		}
	}
	return lat
}

func runView(cfg runCfg, rep *report) error {
	d, setup, err := setUp(cfg, func(int) (*viewDeploy, error) { return buildView(cfg) },
		func(d *viewDeploy) { d.close() })
	if err != nil {
		return err
	}
	defer d.close()
	setup.report(rep, fmt.Sprintf("render service (Workers=%d), %d galleon sessions of %d triangles, %d thin clients",
		cfg.nproc, viewClients, genmodel.PaperGalleonTriangles, viewClients))

	plain := func(i int, cam raster.Camera) ([]byte, error) {
		th := d.clients[i]
		if err := th.SetCamera(cam); err != nil {
			return nil, err
		}
		fb, err := th.RequestFrame(viewSize, viewSize, "adaptive")
		if err != nil {
			return nil, err
		}
		return fb.Color, nil
	}
	viewPhase(cfg, 0, time.Now().Add(warmupPeriod), plain, d.cam)

	measure := cfg.seconds
	if cfg.trace {
		measure = cfg.seconds / 2
	}
	d.wire.reset()
	w := openWindow()
	logs := viewPhase(cfg, 1, time.Now().Add(seconds(measure)), plain, d.cam)
	w.close()
	checked, err := verifyFrames(cfg, d.model, viewSize, viewSize, logs)
	if err != nil {
		return fmt.Errorf("reference render: %w", err)
	}
	lat := collect(logs)
	rep.ops.add(lat.tally)
	dd := summarize(lat.ms)
	completed := len(lat.ms)
	windowMetrics(rep, w, completed, &d.wire)
	rep.printf("%s", latencyLine("frame", dd))
	rep.printf("frames_per_s %.3f 1/s, cpu_ms_per_frame %.4f ms, failed_frac %.4f ratio",
		float64(completed)/w.Elapsed.Seconds(), ms(w.CPU)/float64(max(completed, 1)), lat.FailedFrac())
	rep.printf("correctness: %d of %d frames checked against a fresh single-viewer render; wrong %d, errors %d, declined %d",
		checked, lat.Attempted, lat.Wrong, lat.Errors, lat.Declines)
	if lat.Failed() > 0 {
		rep.fail("%d of %d view frames failed or were wrong", lat.Failed(), lat.Attempted)
	}
	if completed == 0 {
		return fmt.Errorf("no frame completed")
	}
	if !cfg.trace {
		return nil
	}

	// Traced phase: the same closed loop through the benchmark's own
	// serving and decoding loops, with spans.
	traced := func(i int, cam raster.Camera) ([]byte, error) {
		return d.tviews[i].frame(time.Time{}, &cam, viewSize, viewSize, "adaptive")
	}
	viewPhase(cfg, 2, time.Now().Add(warmupPeriod/2), traced, d.cam)
	d.tr.reset()
	d.stats.reset()
	for _, v := range d.tviews {
		v.encoded, v.frames = 0, 0
	}
	before := d.rs.Telemetry().Snapshot()
	tw := openWindow()
	tlogs := viewPhase(cfg, 3, time.Now().Add(seconds(cfg.seconds/2)), traced, d.cam)
	tw.close()
	delta := registryDelta{before, d.rs.Telemetry().Snapshot()}
	if _, err := verifyFrames(cfg, d.model, viewSize, viewSize, tlogs); err != nil {
		return fmt.Errorf("reference render: %w", err)
	}
	tlat := collect(tlogs)
	rep.ops.add(tlat.tally)
	if tlat.Failed() > 0 {
		rep.fail("%d of %d traced view frames failed or were wrong", tlat.Failed(), tlat.Attempted)
	}
	frames := len(tlat.ms)
	rep.set("host.steal_frac", "ratio", tw.Steal)
	rasterMetrics(rep, []registryDelta{delta}, frames)
	frameLayerMetrics(rep, d.tr, &d.stats, d.tviews, frames, viewSize, viewSize)
	layerBreakdown(rep, d.tr, "frame", dd.P50, true)
	return nil
}

// frameLayerMetrics reports the render, codec and transport layers of a
// traced thin-client phase of frames completed w×h frames.
func frameLayerMetrics(rep *report, tr *tracer, stats *linkStats, views []*tracedViewer, frames, w, h int) {
	roots := tr.trees()
	render, _ := spanStats(roots, "RenderFrameBy")
	enc, _ := spanStats(roots, "EncodeFrame")
	dec, _ := spanStats(roots, "Decode")
	rep.set("renderservice.render_ms", "ms", render)
	rep.set("imgcodec.encode_ms", "ms", enc)
	rep.set("imgcodec.decode_ms", "ms", dec)
	var encoded, n int64
	for _, v := range views {
		encoded += v.encoded
		n += v.frames
	}
	if n > 0 && encoded > 0 {
		perFrame := float64(encoded) / float64(n)
		rep.set("imgcodec.bytes_per_frame", "bytes", perFrame)
		rep.set("imgcodec.ratio", "ratio", float64(w*h*3)/perFrame)
	}
	if frames > 0 {
		rep.set("transport.bytes_per_frame", "bytes", float64(stats.written.Load())/float64(frames))
		rep.set("transport.write_ms_per_frame", "ms", float64(stats.writeNs.Load())/1e6/float64(frames))
	}
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
