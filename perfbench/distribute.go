package main

import (
	"fmt"
	"net"
	"time"

	"repro/internal/balance"
	"repro/internal/core"
	"repro/internal/dataservice"
	"repro/internal/device"
	"repro/internal/geom/genmodel"
	"repro/internal/mathx"
	"repro/internal/raster"
	"repro/internal/renderservice"
	"repro/internal/scene"
)

const (
	distSize     = 400
	distServices = 2
	distPieces   = 8
	// distSampleEvery: every 4th composited frame is checked.
	distSampleEvery = 4
)

type distDeploy struct {
	sess    *dataservice.Session
	dist    *dataservice.Distributor
	base    raster.Camera
	rss     []*renderservice.Service
	plain   []*server
	handles []*core.SocketHandle
	conns   []net.Conn

	wire linkStats // every plain link, both directions

	traced  []*server
	tr      *tracer
	stats   linkStats
	thandle map[string]*tracedHandle
}

func buildDistribute(cfg runCfg) (*distDeploy, error) {
	d := &distDeploy{}
	full := genmodel.Elle(genmodel.PaperElleTriangles)
	var err error
	d.sess, err = dataservice.New(dataservice.Config{Name: "data"}).CreateSession("elle")
	if err != nil {
		return nil, err
	}
	for i, piece := range full.SplitSpatially(distPieces) {
		if _, err := d.sess.AddMesh(fmt.Sprintf("elle-part-%d", i), piece, mathx.Identity()); err != nil {
			return nil, err
		}
	}
	d.base = raster.DefaultCamera().FitToBounds(full.Bounds(), mathx.V3(0.3, 0.2, 1))
	if err := d.sess.SetCamera(renderservice.StateFromCamera(d.base), ""); err != nil {
		return nil, err
	}
	d.dist = d.sess.NewDistributor(balance.DefaultThresholds())
	if cfg.trace {
		d.tr = &tracer{}
		d.thandle = map[string]*tracedHandle{}
	}
	for i := 0; i < distServices; i++ {
		name := fmt.Sprintf("render-%d", i)
		rs := renderservice.New(renderservice.Config{Name: name, Device: device.XeonDesktop, Workers: 1})
		d.rss = append(d.rss, rs)
		srv, err := serve(func(c net.Conn) { rs.ServeClient(wrapConn(c, &d.wire, nil), 100e6) })
		if err != nil {
			d.close()
			return nil, err
		}
		d.plain = append(d.plain, srv)
		nc, err := dial(srv.addr())
		if err != nil {
			d.close()
			return nil, err
		}
		d.conns = append(d.conns, nc)
		h, err := core.DialSocketHandle(wrapConn(nc, &d.wire, nil), name, "elle")
		if err != nil {
			d.close()
			return nil, err
		}
		d.handles = append(d.handles, h)
		if err := d.dist.AddService(h); err != nil {
			d.close()
			return nil, err
		}
		if cfg.trace {
			tsrv, err := serve(func(c net.Conn) { serveTraced(rs, c, &d.stats, d.tr, 100e6) })
			if err != nil {
				d.close()
				return nil, err
			}
			d.traced = append(d.traced, tsrv)
			th, err := dialTracedHandle(tsrv.addr(), name, "elle", &d.stats, d.tr)
			if err != nil {
				d.close()
				return nil, err
			}
			d.thandle[name] = th
		}
	}
	asg, err := d.dist.Distribute()
	if err != nil {
		d.close()
		return nil, err
	}
	if len(asg) != distServices {
		d.close()
		return nil, fmt.Errorf("plan used %d of %d render services", len(asg), distServices)
	}
	return d, nil
}

func (d *distDeploy) close() {
	for _, h := range d.handles {
		h.Close()
	}
	for _, h := range d.thandle {
		h.close()
	}
	for _, c := range d.conns {
		c.Close()
	}
	for _, s := range d.plain {
		s.close()
	}
	for _, s := range d.traced {
		s.close()
	}
}

// distPhase runs the closed loop until end: move the shared camera by a
// seeded orbit step, then request one distributed frame.
func distPhase(cfg runCfg, d *distDeploy, phase uint64, end time.Time, frame func() (*raster.Framebuffer, error)) (*frameLog, error) {
	o := newOrbit(cfg.seed, phase, d.base)
	l := &frameLog{}
	for n := 0; time.Now().Before(end); n++ {
		cs := renderservice.StateFromCamera(o.next())
		if err := d.sess.SetCamera(cs, ""); err != nil {
			return nil, err
		}
		start := time.Now()
		fb, err := frame()
		dur := time.Since(start)
		if err != nil {
			l.add(classify(err), dur)
			continue
		}
		at := l.add(opOK, dur)
		if n%distSampleEvery == 0 {
			l.samples = append(l.samples, sample{cam: renderservice.CameraFromState(cs), sum: checksum(fb.Color), at: at})
		}
	}
	return l, nil
}

// verifyDistributed renders each sampled pose of the whole scene on one
// fresh render service; the composited frame must match it byte for
// byte.
func verifyDistributed(cfg runCfg, whole *scene.Scene, l *frameLog) (int, error) {
	ref := renderservice.New(renderservice.Config{Name: "reference", Device: device.XeonDesktop, Workers: cfg.nproc})
	for _, s := range l.samples {
		fb, _, err := ref.RenderSceneOnce(whole, s.cam, distSize, distSize)
		if err != nil {
			return 0, err
		}
		if checksum(fb.Color) != s.sum {
			l.outcomes[s.at] = opWrong
		}
	}
	return len(l.samples), nil
}

func runDistribute(cfg runCfg, rep *report) error {
	d, setup, err := setUp(cfg, func(int) (*distDeploy, error) { return buildDistribute(cfg) },
		func(d *distDeploy) { d.close() })
	if err != nil {
		return err
	}
	defer d.close()
	whole := d.sess.Snapshot()
	asg := d.dist.Assignment()
	setup.report(rep, fmt.Sprintf("Elle (%d triangles) in %d nodes, %d render services (Workers=1) over sockets, plan %v",
		whole.TotalCost().Triangles, distPieces, distServices, asg))

	plain := func() (*raster.Framebuffer, error) { return d.dist.RenderDistributed(distSize, distSize) }
	if _, err := distPhase(cfg, d, 0, time.Now().Add(warmupPeriod), plain); err != nil {
		return err
	}
	measure := cfg.seconds
	if cfg.trace {
		measure = cfg.seconds / 2
	}
	d.wire.reset()
	w := openWindow()
	l, err := distPhase(cfg, d, 1, time.Now().Add(seconds(measure)), plain)
	w.close()
	if err != nil {
		return err
	}
	checked, err := verifyDistributed(cfg, whole, l)
	if err != nil {
		return fmt.Errorf("reference render: %w", err)
	}
	lat := collect([]*frameLog{l})
	rep.ops.add(lat.tally)
	dd := summarize(lat.ms)
	completed := len(lat.ms)
	if completed == 0 {
		return fmt.Errorf("no frame completed")
	}
	windowMetrics(rep, w, completed, &d.wire)
	rep.printf("%s", latencyLine("frame", dd))
	rep.printf("frames_per_s %.3f 1/s, cpu_ms_per_frame %.4f ms, failed_frac %.4f ratio",
		float64(completed)/w.Elapsed.Seconds(), ms(w.CPU)/float64(completed), lat.FailedFrac())
	rep.printf("correctness: %d of %d composited frames compared with one service rendering the whole scene; wrong %d, errors %d, declined %d",
		checked, lat.Attempted, lat.Wrong, lat.Errors, lat.Declines)
	if lat.Failed() > 0 {
		rep.fail("%d of %d distributed frames failed or were wrong", lat.Failed(), lat.Attempted)
	}
	if !cfg.trace {
		return nil
	}

	// Traced phase: RenderDistributed's steps from the benchmark's own
	// loop, over the traced serving loops.
	var shipped, tframes int
	traced := func() (*raster.Framebuffer, error) {
		fb, n, err := renderDistributedTraced(d.tr, d.sess, asg, d.thandle, distSize, distSize)
		shipped += n
		return fb, err
	}
	if _, err := distPhase(cfg, d, 2, time.Now().Add(warmupPeriod/2), traced); err != nil {
		return err
	}
	d.tr.reset()
	d.stats.reset()
	shipped = 0
	var before []registryDelta
	for _, rs := range d.rss {
		before = append(before, registryDelta{before: rs.Telemetry().Snapshot()})
	}
	tw := openWindow()
	tl, err := distPhase(cfg, d, 3, time.Now().Add(seconds(cfg.seconds/2)), traced)
	tw.close()
	if err != nil {
		return err
	}
	for i, rs := range d.rss {
		before[i].after = rs.Telemetry().Snapshot()
	}
	if _, err := verifyDistributed(cfg, whole, tl); err != nil {
		return fmt.Errorf("reference render: %w", err)
	}
	tlat := collect([]*frameLog{tl})
	rep.ops.add(tlat.tally)
	if tlat.Failed() > 0 {
		rep.fail("%d of %d traced distributed frames failed or were wrong", tlat.Failed(), tlat.Attempted)
	}
	tframes = len(tlat.ms)
	if tframes == 0 {
		return fmt.Errorf("no traced frame completed")
	}
	rep.set("host.steal_frac", "ratio", tw.Steal)
	rasterMetrics(rep, before, tframes)
	roots := d.tr.trees()
	render, _ := spanStats(roots, "RenderSceneOnceBy")
	rep.set("renderservice.render_ms", "ms", render)
	extract, _ := spanStats(roots, "ExtractSubset")
	rep.set("dataservice.extract_ms", "ms", extract)
	_, slowest := spanStats(roots, "RenderSubset")
	rep.set("dataservice.subset_rtt_ms", "ms", slowest)
	enc, _ := spanStats(roots, "WriteScene")
	rep.set("marshal.scene_encode_ms", "ms", enc)
	dec, _ := spanStats(roots, "ReadFrame")
	rep.set("marshal.frame_decode_ms", "ms", dec)
	comp, _ := spanStats(roots, "CompositeAll")
	rep.set("compositor.composite_ms", "ms", comp)
	f := float64(tlat.Attempted)
	rep.set("marshal.scene_bytes_per_frame", "bytes", float64(shipped)/f)
	rep.set("transport.bytes_per_frame", "bytes", float64(d.stats.written.Load())/f)
	rep.set("transport.write_ms_per_frame", "ms", float64(d.stats.writeNs.Load())/1e6/f)
	layerBreakdown(rep, d.tr, "frame", dd.P50, true)
	return nil
}
