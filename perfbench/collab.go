package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/dataservice/wal"
	"repro/internal/device"
	"repro/internal/gateway"
	"repro/internal/geom/genmodel"
	"repro/internal/mathx"
	"repro/internal/raster"
	"repro/internal/renderservice"
	"repro/internal/telemetry"
	"repro/internal/uddi"
)

const (
	collabNodes    = 4
	collabSessions = 256
	collabTenants  = 8
	// commitRate is the open-loop mutation rate, commits per second.
	commitRate     = 500
	commitInterval = time.Second / commitRate
	// hotShare of the commits go to the hot session, the rest uniformly
	// to the other sessions.
	hotShare = 0.1
	pdaSize  = 200
	// pdaFPS is each viewer's frame rate.
	pdaFPS        = 20
	collabViewers = 2
	// visiblePoll is how often the render replica's version is read.
	visiblePoll = 500 * time.Microsecond
)

type collabDeploy struct {
	dir      string
	reg      *telemetry.Registry
	gw       *gateway.Gateway
	nodes    []*gateway.Node
	sessions []string
	hot      string
	hotOwner *gateway.Node

	mu     sync.Mutex
	stores map[string]wal.Store // each session's journal, by session
	acked  map[string]uint64    // each session's last acknowledged version

	dataSrv  *server
	subConn  net.Conn
	subDone  chan error
	replica  *renderservice.Service
	rsess    *renderservice.Session
	viewSrv  *server
	viewers  []*client.Thin
	refSum   uint64
	modelTri int

	wire linkStats // every plain link, both directions

	// Traced run only.
	tr         *tracer
	tstores    map[string]*tracedStore // by session, under mu
	walStats   walStats
	opStats    linkStats // the op stream from the hot session's owner to the replica
	opConn     atomic.Pointer[tracedConn]
	frameStats linkStats
	tviewSrv   *server
	tviewers   []*tracedViewer
}

func buildCollab(cfg runCfg, iter int) (*collabDeploy, error) {
	dir, err := cfg.subdir(fmt.Sprintf("collab-%d", iter))
	if err != nil {
		return nil, err
	}
	d := &collabDeploy{dir: dir, stores: map[string]wal.Store{}, acked: map[string]uint64{}, tstores: map[string]*tracedStore{}}
	if cfg.trace {
		d.tr = &tracer{}
	}
	d.reg = telemetry.NewRegistry(nil)
	d.gw, err = gateway.New(gateway.Config{Leases: uddi.NewRegistry(), Metrics: d.reg, ReplicationFactor: 2})
	if err != nil {
		return nil, err
	}
	for i := 0; i < collabNodes; i++ {
		name := fmt.Sprintf("node-%d", i)
		ndir := filepath.Join(dir, name)
		if err := os.MkdirAll(ndir, 0o755); err != nil {
			return nil, err
		}
		n := gateway.NewNode(gateway.NodeConfig{
			Name: name, Metrics: d.reg,
			// The smallest op cost NodeConfig accepts: timings are the
			// program's own work, not the modeled 2004 middleware.
			OpCost:  time.Nanosecond,
			Journal: d.journal(ndir),
		})
		d.nodes = append(d.nodes, n)
		if err := d.gw.AddNode(n); err != nil {
			return nil, err
		}
	}
	for i := 0; i < collabSessions; i++ {
		s := fmt.Sprintf("s-%03d", i)
		if err := d.gw.OpenSession(tenant(i), s); err != nil {
			d.close()
			return nil, err
		}
		d.sessions = append(d.sessions, s)
	}
	d.hot = d.sessions[0]

	// The hot session holds the galleon, framed by its shared camera.
	owner, _, _, ok := d.gw.Placement(d.hot)
	if !ok {
		d.close()
		return nil, fmt.Errorf("hot session not placed")
	}
	d.hotOwner, _ = d.gw.Node(owner)
	dsess, ok := d.hotOwner.Service().Session(d.hot)
	if !ok {
		d.close()
		return nil, fmt.Errorf("hot session missing on its owner")
	}
	mesh := genmodel.Galleon(genmodel.PaperGalleonTriangles)
	d.modelTri = mesh.TriangleCount()
	if _, err := dsess.AddMesh("galleon", mesh, mathx.Identity()); err != nil {
		d.close()
		return nil, err
	}
	cam := raster.DefaultCamera().FitToBounds(mesh.Bounds(), mathx.V3(0.3, 0.25, 1))
	if err := dsess.SetCamera(renderservice.StateFromCamera(cam), ""); err != nil {
		d.close()
		return nil, err
	}
	for _, s := range d.sessions {
		owner, _, _, _ := d.gw.Placement(s)
		n, _ := d.gw.Node(owner)
		sess, ok := n.Service().Session(s)
		if !ok {
			d.close()
			return nil, fmt.Errorf("session %s missing on its owner", s)
		}
		d.acked[s] = sess.Version()
	}

	// The hot session's owner feeds a render replica over TCP.
	d.dataSrv, err = serve(func(c net.Conn) {
		c = wrapConn(c, &d.wire, nil)
		if d.tr != nil {
			tc := wrapConn(c, &d.opStats, d.tr)
			d.opConn.Store(tc)
			c = tc
		}
		d.hotOwner.Service().ServeConn(c)
	})
	if err != nil {
		d.close()
		return nil, err
	}
	d.replica = renderservice.New(renderservice.Config{Name: "replica", Device: device.XeonDesktop, Workers: cfg.nproc})
	d.subConn, err = dial(d.dataSrv.addr())
	if err != nil {
		d.close()
		return nil, err
	}
	ready := make(chan *renderservice.Session, 1)
	d.subDone = make(chan error, 1)
	go func() {
		d.subDone <- d.replica.SubscribeToData(wrapConn(d.subConn, &d.wire, nil), d.hot, func(s *renderservice.Session) { ready <- s })
	}()
	select {
	case d.rsess = <-ready:
	case err := <-d.subDone:
		d.subDone <- err
		d.close()
		return nil, fmt.Errorf("replica subscription ended before bootstrap: %v", err)
	case <-time.After(30 * time.Second):
		d.close()
		return nil, fmt.Errorf("replica bootstrap timed out")
	}
	// The shared camera follows the bootstrap snapshot on the stream.
	want := renderservice.CameraFromState(dsess.Camera())
	if !waitFor(10*time.Second, func() bool { return d.rsess.Camera() == want }) {
		d.close()
		return nil, fmt.Errorf("replica never received the shared camera")
	}

	// The one reference image every viewer frame must equal: mutations
	// add only empty group nodes, so the hot image never changes.
	ref := renderservice.New(renderservice.Config{Name: "reference", Device: device.XeonDesktop, Workers: cfg.nproc})
	rsess, err := ref.OpenSession("reference", dsess.Snapshot(), want)
	if err != nil {
		d.close()
		return nil, err
	}
	f, err := rsess.RenderFrame(pdaSize, pdaSize, "reference")
	rsess.Close()
	if err != nil {
		d.close()
		return nil, err
	}
	d.refSum = checksum(f.FB.Color)

	d.viewSrv, err = serve(func(c net.Conn) { d.replica.ServeClient(wrapConn(c, &d.wire, nil), wirelessBps) })
	if err != nil {
		d.close()
		return nil, err
	}
	for i := 0; i < collabViewers; i++ {
		nc, err := dial(d.viewSrv.addr())
		if err != nil {
			d.close()
			return nil, err
		}
		th, err := client.DialThin(wrapConn(nc, &d.wire, nil), fmt.Sprintf("pda-%d", i), d.hot)
		if err != nil {
			nc.Close()
			d.close()
			return nil, err
		}
		d.viewers = append(d.viewers, th)
	}
	if cfg.trace {
		d.tviewSrv, err = serve(func(c net.Conn) { serveTraced(d.replica, c, &d.frameStats, d.tr, wirelessBps) })
		if err != nil {
			d.close()
			return nil, err
		}
		for i := 0; i < collabViewers; i++ {
			tv, err := dialTracedViewer(d.tviewSrv.addr(), fmt.Sprintf("pda-traced-%d", i), d.hot, &d.frameStats, d.tr)
			if err != nil {
				d.close()
				return nil, err
			}
			d.tviewers = append(d.tviewers, tv)
		}
	}
	return d, nil
}

// journal is a node's NodeConfig.Journal: one on-disk store per
// session, wrapped in the traced run.
func (d *collabDeploy) journal(dir string) func(session string) wal.Store {
	return func(session string) wal.Store {
		inner := wal.NewOSStore(filepath.Join(dir, session+".wal"))
		d.mu.Lock()
		d.stores[session] = inner
		d.mu.Unlock()
		if d.tr == nil {
			return inner
		}
		ts := &tracedStore{inner: inner, stats: &d.walStats, tr: d.tr}
		d.mu.Lock()
		d.tstores[session] = ts
		d.mu.Unlock()
		return ts
	}
}

func (d *collabDeploy) close() {
	for _, v := range d.viewers {
		_ = v.Close() // the server side is closed next either way
	}
	for _, v := range d.tviewers {
		v.close()
	}
	if d.viewSrv != nil {
		d.viewSrv.close()
	}
	if d.tviewSrv != nil {
		d.tviewSrv.close()
	}
	if d.subConn != nil {
		d.subConn.Close()
		<-d.subDone
	}
	if d.dataSrv != nil {
		d.dataSrv.close()
	}
	for _, n := range d.nodes {
		for _, s := range n.Service().SessionNames() {
			if sess, ok := n.Service().Session(s); ok {
				_ = sess.StopJournal() // the directory is removed next
			}
		}
	}
	os.RemoveAll(d.dir)
}

// waitFor polls cond until it holds or timeout passes.
func waitFor(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// visibility matches hot-session commits to the moment the render
// replica's version first shows them.
type visibility struct {
	wake    chan struct{} // signalled when a commit is pushed
	mu      sync.Mutex
	pending []pendingCommit
	visible []float64 // issued → visible on the replica, ms
	lag     []float64 // commit returned → visible on the replica, ms
}

type pendingCommit struct {
	version           uint64
	issued, committed time.Time
}

// push adds a commit; commits arrive in version order.
func (v *visibility) push(p pendingCommit) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.pending = append(v.pending, p)
	select {
	case v.wake <- struct{}{}:
	default: // the watcher is already polling
	}
}

// observe settles every pending commit the replica version covers and
// returns how many are still pending.
func (v *visibility) observe(version uint64, now time.Time) int {
	v.mu.Lock()
	defer v.mu.Unlock()
	i := 0
	for ; i < len(v.pending) && v.pending[i].version <= version; i++ {
		p := v.pending[i]
		v.visible = append(v.visible, ms(now.Sub(p.issued)))
		lag := now.Sub(p.committed)
		if lag < 0 {
			lag = 0
		}
		v.lag = append(v.lag, ms(lag))
	}
	v.pending = v.pending[i:]
	return len(v.pending)
}

func (v *visibility) left() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.pending)
}

// collabPhase is one measured stretch: the mutation generator, the
// viewer pacer and the replica watcher, all ending at end.
type collabPhase struct {
	commits latencies
	late    []float64
	frames  latencies
	vlate   []float64
	vis     visibility
	hot     int
}

func runCollabPhase(cfg runCfg, d *collabDeploy, phase uint64, start, end time.Time, traced bool) *collabPhase {
	p := &collabPhase{vis: visibility{wake: make(chan struct{}, 1)}}
	// The index of the session each commit goes to, drawn in schedule
	// order: the hot session is index 0.
	rng := rand.New(rand.NewPCG(cfg.seed, 100+phase))
	picks := make([]int, int(end.Sub(start)/commitInterval)+1)
	for i := range picks {
		if rng.Float64() >= hotShare {
			picks[i] = 1 + rng.IntN(len(d.sessions)-1)
		}
	}
	stop := make(chan struct{})
	var watch sync.WaitGroup
	watch.Add(1)
	go func() {
		defer watch.Done()
		for {
			// Poll only while a hot commit is waiting to show up, so
			// an idle watcher does not wake the host's CPUs.
			select {
			case <-stop:
				return
			case <-p.vis.wake:
			}
			for p.vis.observe(d.rsess.Version(), time.Now()) > 0 {
				select {
				case <-stop:
					return
				case <-time.After(visiblePoll):
				}
			}
		}
	}()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		frame := func(i int, issued time.Time) outcome {
			var px []byte
			var err error
			if traced {
				px, err = d.tviewers[i%collabViewers].frame(issued, nil, pdaSize, pdaSize, "adaptive")
			} else {
				var fb *raster.Framebuffer
				fb, err = d.viewers[i%collabViewers].RequestFrame(pdaSize, pdaSize, "adaptive")
				if err == nil {
					px = fb.Color
				}
			}
			if err != nil {
				return classify(err)
			}
			if checksum(px) != d.refSum {
				return opWrong
			}
			return opOK
		}
		interval := time.Second / (pdaFPS * collabViewers)
		openLoop(realClock{}, start, end, interval, frame, &p.frames, &p.vlate)
	}()

	commit := func(i int, issued time.Time) outcome {
		s := d.sessions[picks[i]]
		var root spanCtx
		var sp *openSpan
		var store *tracedStore
		if traced {
			id := d.tr.newID()
			root = spanCtx{id, id}
			sp = d.tr.begin(root, "dataservice", "Dispatch")
			inner := sp.ctx()
			// Name the commit in flight to the session's journal, and to
			// the op stream when the hot session streams it.
			d.mu.Lock()
			store = d.tstores[s]
			d.mu.Unlock()
			store.cur.Store(&inner)
			if s == d.hot {
				if c := d.opConn.Load(); c != nil {
					c.setCtx(inner)
				}
			}
		}
		res, err := d.gw.Dispatch(context.Background(), gateway.Request{
			Tenant: tenant(picks[i]), Session: s,
			Kind: gateway.KindMutate, Interactive: true,
		})
		if traced {
			sp.end()
		}
		now := time.Now()
		if traced {
			store.cur.Store(nil)
			d.tr.add(span{trace: root.trace, id: root.span, layer: "gen", name: "commit", start: issued, end: now})
		}
		if err != nil {
			var dec *gateway.ErrDeclined
			if errors.As(err, &dec) {
				return opDeclined
			}
			return opError
		}
		d.mu.Lock()
		d.acked[s] = res.Version
		d.mu.Unlock()
		if s == d.hot {
			p.hot++
			p.vis.push(pendingCommit{version: res.Version, issued: issued, committed: now})
		}
		return opOK
	}
	openLoop(realClock{}, start, end, commitInterval, commit, &p.commits, &p.late)
	wg.Wait()
	// Let the replica catch up with the last commits before the watcher
	// stops; anything still pending is reported by the caller.
	waitFor(10*time.Second, func() bool { return p.vis.left() == 0 })
	close(stop)
	watch.Wait()
	return p
}

// tenant is the fair-share tenant of session i.
func tenant(i int) string { return fmt.Sprintf("t-%d", i%collabTenants) }

// checkCollab verifies the end state: the replica holds the hot
// session's version, and every session's journal recovers to exactly
// the version its last commit acknowledged.
func checkCollab(d *collabDeploy, rep *report) {
	owner, _ := d.hotOwner.Service().Session(d.hot)
	if !waitFor(10*time.Second, func() bool { return d.rsess.Version() == owner.Version() }) {
		rep.fail("render replica at version %d, data service at %d", d.rsess.Version(), owner.Version())
	}
	bad := 0
	for _, s := range d.sessions {
		d.mu.Lock()
		store, acked := d.stores[s], d.acked[s]
		d.mu.Unlock()
		rec, err := wal.Recover(store)
		if err != nil {
			rep.fail("session %s journal does not recover: %v", s, err)
			bad++
			continue
		}
		if rec.Version != acked {
			rep.fail("session %s journal recovers to version %d, acknowledged %d", s, rec.Version, acked)
			bad++
		}
	}
	snapshots, resumes := owner.BootstrapStats()
	rep.printf("end state: replica version %d, data version %d; %d of %d journals recover to their acknowledged version; hot session served %d snapshots and %d resumes",
		d.rsess.Version(), owner.Version(), len(d.sessions)-bad, len(d.sessions), snapshots, resumes)
}

func runCollab(cfg runCfg, rep *report) error {
	d, setup, err := setUp(cfg, func(i int) (*collabDeploy, error) { return buildCollab(cfg, i) },
		func(d *collabDeploy) { d.close() })
	if err != nil {
		return err
	}
	defer d.close()
	setup.report(rep, fmt.Sprintf("gateway over %d nodes (replication factor 2, on-disk journals), %d sessions, hot session %s on %s holding the galleon (%d triangles), render replica + %d PDA viewers",
		collabNodes, collabSessions, d.hot, d.hotOwner.Name(), d.modelTri, collabViewers))
	rep.printf("load: %d commits/s open loop, %.0f%% to the hot session, uniform over the rest; each viewer %d frames/s of %dx%d adaptive at 11 Mbit",
		commitRate, 100*hotShare, pdaFPS, pdaSize, pdaSize)

	warm := time.Now()
	runCollabPhase(cfg, d, 0, warm, warm.Add(warmupPeriod), false)

	measure := cfg.seconds
	if cfg.trace {
		measure = cfg.seconds / 2
	}
	d.wire.reset()
	w := openWindow()
	start := time.Now()
	p := runCollabPhase(cfg, d, 1, start, start.Add(seconds(measure)), false)
	w.close()
	reportCollab(rep, p, w, &d.wire)
	if !cfg.trace {
		checkCollab(d, rep)
		return nil
	}

	untracedCommit := summarize(p.commits.ms).P50
	untracedFrame := summarize(p.frames.ms).P50
	late := summarize(p.late)
	rep.set("gen.late_p50_ms", "ms", late.P50)
	rep.set("gen.late_p99_ms", "ms", late.P99)

	// Traced phase: the same load with spans on dispatch, the journal
	// store and the op stream, and the viewers through the benchmark's
	// own serving loop.
	warm = time.Now()
	runCollabPhase(cfg, d, 2, warm, warm.Add(warmupPeriod/2), true)
	d.tr.reset()
	d.walStats.reset()
	d.opStats.reset()
	d.frameStats.reset()
	for _, v := range d.tviewers {
		v.encoded, v.frames = 0, 0
	}
	before := d.reg.Snapshot()
	rbefore := d.replica.Telemetry().Snapshot()
	tw := openWindow()
	start = time.Now()
	tp := runCollabPhase(cfg, d, 3, start, start.Add(seconds(cfg.seconds/2)), true)
	tw.close()
	fleet := registryDelta{before, d.reg.Snapshot()}
	replica := registryDelta{rbefore, d.replica.Telemetry().Snapshot()}
	rep.ops.add(tp.commits.tally)
	rep.ops.add(tp.frames.tally)
	rep.printf("traced phase: %d commits (%d hot), %d viewer frames (%d wrong)",
		tp.commits.Attempted, tp.hot, tp.frames.Attempted, tp.frames.Wrong)
	checkCollab(d, rep)

	commits := float64(tp.commits.Attempted)
	rep.set("host.steal_frac", "ratio", tw.Steal)
	rep.set("wal.sync_ms_per_commit", "ms", float64(d.walStats.syncNs.Load())/1e6/commits)
	rep.set("wal.syncs_per_commit", "count", float64(d.walStats.syncs.Load())/commits)
	rep.set("wal.bytes_per_commit", "bytes", float64(d.walStats.bytes.Load())/commits)
	if n := d.walStats.checkpoints.Load(); n > 0 {
		rep.set("wal.checkpoint_ms", "ms", float64(d.walStats.checkpointNs.Load())/1e6/float64(n))
	}
	if n, sum := fleet.histogram("", "wal_append_ns"); n > 0 {
		rep.set("wal.append_ms", "ms", ms(sum)/float64(n))
	}
	roots := d.tr.trees()
	dispatch, _ := spanStats(roots, "Dispatch")
	rep.set("gateway.dispatch_ms", "ms", dispatch)
	declined := fleet.counter("gw", "declined_total")
	admitted := fleet.counter("gw", "admitted_total")
	if declined+admitted > 0 {
		rep.set("gateway.declined_frac", "ratio", float64(declined)/float64(declined+admitted))
	}
	rep.set("gateway.retries_per_commit", "count", float64(fleet.counter("gw", "dispatch_retries_total"))/commits)
	if tp.hot > 0 {
		rep.set("transport.bytes_per_commit", "bytes", float64(d.opStats.written.Load())/float64(tp.hot))
	}
	rep.set("renderservice.apply_lag_ms", "ms", median(tp.vis.lag))
	commitRoots := map[uint64]*node{}
	for id, r := range roots {
		if r.name == "commit" {
			commitRoots[id] = r
		}
	}
	per, _ := layerTimes(commitRoots)
	var apply []float64
	for _, m := range per {
		apply = append(apply, ms(m["dataservice"]))
	}
	rep.set("dataservice.apply_ms", "ms", median(apply))
	frames := len(tp.frames.ms) + tp.frames.Wrong
	rasterMetrics(rep, []registryDelta{replica}, frames)
	frameLayerMetrics(rep, d.tr, &d.frameStats, d.tviewers, frames, pdaSize, pdaSize)
	layerBreakdown(rep, d.tr, "commit", untracedCommit, true)
	layerBreakdown(rep, d.tr, "frame", untracedFrame, false)
	return nil
}

// reportCollab prints the end-to-end figures of an untraced phase.
func reportCollab(rep *report, p *collabPhase, w *window, wire *linkStats) {
	c := summarize(p.commits.ms)
	f := summarize(p.frames.ms)
	v := summarize(p.vis.visible)
	late := summarize(p.late)
	rep.ops.add(p.commits.tally)
	rep.ops.add(p.frames.tally)
	windowMetrics(rep, w, p.commits.Attempted, wire)
	rep.printf("%s", latencyLine("commit", c))
	rep.printf("%s", latencyLine("visible", v))
	rep.printf("%s (viewers, paced)", latencyLine("frame", f))
	all := p.commits.tally
	all.add(p.frames.tally)
	rep.printf("cpu_cores %.4f cores, failed_frac %.4f ratio", w.CPU.Seconds()/w.Elapsed.Seconds(), all.FailedFrac())
	rep.printf("generator lateness: gen.late_p50_ms %.4f ms, gen.late_p99_ms %.4f ms (n=%d); viewer pacer lateness p50 %.4f ms",
		late.P50, late.P99, late.N, summarize(p.vlate).P50)
	rep.printf("correctness: commits %d attempted, %d errors, %d declined; viewer frames %d attempted, %d wrong, %d errors, %d declined; %d hot commits, %d never visible on the replica",
		p.commits.Attempted, p.commits.Errors, p.commits.Declines, p.frames.Attempted, p.frames.Wrong, p.frames.Errors, p.frames.Declines, p.hot, p.vis.left())
	if p.frames.Wrong > 0 {
		rep.printf("KNOWN DEFECT: %d of %d viewer frames were wrong. The adaptive/delta codec state is kept per render session, but decoded per connection, so a second viewer of one session on a compressing link decodes against the wrong reference frame.",
			p.frames.Wrong, p.frames.Attempted)
	}
	if p.commits.Failed() > 0 || p.frames.Errors+p.frames.Declines > 0 {
		rep.fail("%d commits and %d viewer frames failed", p.commits.Failed(), p.frames.Errors+p.frames.Declines)
	}
	if p.vis.left() > 0 {
		rep.fail("%d hot commits never became visible on the render replica", p.vis.left())
	}
}
