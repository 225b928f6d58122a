// Package core is RAVE's public facade: it assembles complete
// deployments — UDDI registry, data service, render services, thin and
// active clients — either in-process or across real TCP sockets, wiring
// the pieces exactly as Figure 1 shows. Examples and the command-line
// tools build on this package.
package core

import (
	"context"
	"fmt"
	"image"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	rthin "repro/internal/client"
	"repro/internal/compositor"
	"repro/internal/dataservice"
	"repro/internal/device"
	"repro/internal/marshal"
	"repro/internal/raster"
	"repro/internal/renderservice"
	"repro/internal/scene"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/uddi"
	"repro/internal/vclock"
	"repro/internal/wsdl"
)

// BusinessName is the UDDI business entity all RAVE services register
// under, mirroring the paper's "business representing the RAVE project".
const BusinessName = "RAVE"

// LocalHandle adapts an in-process render service to the data service's
// RenderHandle, for single-process deployments and tests.
type LocalHandle struct {
	Svc *renderservice.Service
	// Session names the render-service session replica used for tile
	// rendering. Empty selects the sole live session.
	Session string
}

// Name implements dataservice.RenderHandle.
func (h *LocalHandle) Name() string { return h.Svc.Name() }

// Capacity implements dataservice.RenderHandle.
func (h *LocalHandle) Capacity() (transport.CapacityReport, error) {
	return h.Svc.Capacity(), nil
}

// RenderSubset implements dataservice.RenderHandle, honouring the
// propagated frame deadline through the service's admission control.
func (h *LocalHandle) RenderSubset(subset *scene.Scene, cam transport.CameraState, w, hgt int, deadline time.Time) (*raster.Framebuffer, error) {
	fb, _, err := h.Svc.RenderSceneOnceBy(subset, renderservice.CameraFromState(cam), w, hgt, deadline)
	return fb, err
}

// RenderTile implements dataservice.TileRenderer against the local
// session replica, honouring the service's admission control and the
// propagated deadline. The caller's span context is handed to the
// service so its render span joins the frame's trace tree.
func (h *LocalHandle) RenderTile(rect image.Rectangle, fullW, fullH int, deadline time.Time, tc telemetry.SpanContext) (compositor.Tile, error) {
	sess, ok := h.Svc.SessionNamed(h.Session)
	if !ok {
		return compositor.Tile{}, fmt.Errorf("core: no session %q on %s", h.Session, h.Svc.Name())
	}
	frame, err := sess.RenderTileTraced(rect, fullW, fullH, deadline, tc)
	if err != nil {
		return compositor.Tile{}, err
	}
	return compositor.Tile{Rect: rect, FB: frame.FB, Version: frame.Version}, nil
}

var _ dataservice.RenderHandle = (*LocalHandle)(nil)
var _ dataservice.TileRenderer = (*LocalHandle)(nil)

// SocketHandle drives a remote render service over a direct socket using
// the subset-assignment protocol. The remote service must already hold
// the session (SubscribeToData) so the hello succeeds.
//
// Request/response exchanges are serialized by a channel semaphore, not
// a mutex: the lockedio contract forbids holding a sync.Mutex across
// socket I/O, because a netsim-stalled link would then block every
// goroutine touching the lock with no way out. With the semaphore, a
// stall confines itself to the in-flight exchange, and acquisition stays
// interruptible (a future caller can select against it).
type SocketHandle struct {
	name    string
	session string

	sem      chan struct{} // capacity 1: owns the conn's request pipeline
	done     chan struct{} // closed by Close: unblocks queued acquirers
	stopOnce sync.Once
	conn     *transport.Conn
}

// acquire takes ownership of the request pipeline, or fails when the
// handle has been closed — a caller queued behind a stalled exchange is
// released instead of blocking forever.
func (h *SocketHandle) acquire() error {
	select {
	case h.sem <- struct{}{}:
		return nil
	case <-h.done:
		return fmt.Errorf("core: handle %s closed", h.name)
	}
}

// release returns ownership.
func (h *SocketHandle) release() { <-h.sem }

// Close releases every caller queued on the request pipeline. The
// in-flight exchange (if any) still owns the conn; closing the
// underlying stream is the dialer's job.
func (h *SocketHandle) Close() {
	h.stopOnce.Do(func() { close(h.done) })
}

// DialSocketHandle performs the thin-client style hello on rw and
// returns a handle for subset rendering.
func DialSocketHandle(rw interface {
	Read([]byte) (int, error)
	Write([]byte) (int, error)
}, name, session string) (*SocketHandle, error) {
	conn := transport.NewConn(rw)
	err := conn.SendJSON(transport.MsgHello, transport.Hello{
		Role: "peer", Name: "data-service", Session: session,
	})
	if err != nil {
		return nil, err
	}
	t, payload, err := conn.Receive()
	if err != nil {
		return nil, err
	}
	if t == transport.MsgError {
		var ei transport.ErrorInfo
		transport.DecodeJSON(payload, &ei)
		return nil, fmt.Errorf("core: handle refused: %s", ei.Message)
	}
	if t != transport.MsgOK {
		return nil, fmt.Errorf("core: expected ok, got %s", t)
	}
	// Attribute subsequent transport failures to the remote service, so
	// error telemetry can label by peer name.
	conn.SetPeer(name)
	return &SocketHandle{
		name: name, session: session, conn: conn,
		sem: make(chan struct{}, 1), done: make(chan struct{}),
	}, nil
}

// Name implements dataservice.RenderHandle.
func (h *SocketHandle) Name() string { return h.name }

// Capacity implements dataservice.RenderHandle.
func (h *SocketHandle) Capacity() (transport.CapacityReport, error) {
	if err := h.acquire(); err != nil {
		return transport.CapacityReport{}, err
	}
	defer h.release()
	if err := h.conn.Send(transport.MsgCapacityQuery, nil); err != nil {
		return transport.CapacityReport{}, err
	}
	t, payload, err := h.conn.Receive()
	if err != nil {
		return transport.CapacityReport{}, err
	}
	if t != transport.MsgCapacityReport {
		return transport.CapacityReport{}, fmt.Errorf("core: expected capacity report, got %s", t)
	}
	var rep transport.CapacityReport
	if err := transport.DecodeJSON(payload, &rep); err != nil {
		return transport.CapacityReport{}, err
	}
	return rep, nil
}

// declined maps a MsgDeclined payload to the typed overload error the
// resilient layers (hedging, breakers) dispatch on.
func (h *SocketHandle) declined(payload []byte) error {
	var d transport.Declined
	transport.DecodeJSON(payload, &d)
	return &renderservice.ErrOverloaded{
		Service:    h.name,
		Reason:     d.Reason,
		RetryAfter: time.Duration(d.RetryAfterMs) * time.Millisecond,
	}
}

// RenderSubset implements dataservice.RenderHandle. The frame deadline
// rides the assignment as absolute nanoseconds, so the remote service's
// admission control sees the same budget the data service planned with.
func (h *SocketHandle) RenderSubset(subset *scene.Scene, cam transport.CameraState, w, hgt int, deadline time.Time) (*raster.Framebuffer, error) {
	if err := h.acquire(); err != nil {
		return nil, err
	}
	defer h.release()
	err := h.conn.SendJSON(transport.MsgSubsetAssign, transport.SubsetAssign{
		Session: h.session, W: w, H: hgt, Camera: cam,
		DeadlineNanos: transport.DeadlineToNanos(deadline),
	})
	if err != nil {
		return nil, err
	}
	snap, err := marshal.AppendScene(nil, subset)
	if err != nil {
		return nil, err
	}
	if err := h.conn.Send(transport.MsgSceneSnapshot, snap); err != nil {
		return nil, err
	}
	t, payload, err := h.conn.Receive()
	if err != nil {
		return nil, err
	}
	if t == transport.MsgDeclined {
		return nil, h.declined(payload)
	}
	if t == transport.MsgError {
		var ei transport.ErrorInfo
		transport.DecodeJSON(payload, &ei)
		return nil, fmt.Errorf("core: subset render refused: %s", ei.Message)
	}
	if t != transport.MsgFrameDepth {
		return nil, fmt.Errorf("core: expected frame+depth, got %s", t)
	}
	return marshal.DecodeFrame(payload)
}

// RenderTile implements dataservice.TileRenderer over the tile
// assignment protocol, propagating the frame deadline so the remote
// service can decline infeasible work instead of rendering it late,
// and the caller's span context so the remote render span joins the
// frame's trace tree.
func (h *SocketHandle) RenderTile(rect image.Rectangle, fullW, fullH int, deadline time.Time, tc telemetry.SpanContext) (compositor.Tile, error) {
	if err := h.acquire(); err != nil {
		return compositor.Tile{}, err
	}
	defer h.release()
	err := h.conn.SendJSON(transport.MsgTileAssign, transport.TileAssign{
		X0: rect.Min.X, Y0: rect.Min.Y, X1: rect.Max.X, Y1: rect.Max.Y,
		FullW: fullW, FullH: fullH, Session: h.session,
		DeadlineNanos: transport.DeadlineToNanos(deadline),
		Trace:         uint64(tc.Trace), Parent: uint64(tc.Span),
	})
	if err != nil {
		return compositor.Tile{}, err
	}
	t, payload, err := h.conn.Receive()
	if err != nil {
		return compositor.Tile{}, err
	}
	if t == transport.MsgDeclined {
		return compositor.Tile{}, h.declined(payload)
	}
	if t == transport.MsgError {
		var ei transport.ErrorInfo
		transport.DecodeJSON(payload, &ei)
		return compositor.Tile{}, fmt.Errorf("core: tile render refused: %s", ei.Message)
	}
	if t != transport.MsgTileFrame {
		return compositor.Tile{}, fmt.Errorf("core: expected tile header, got %s", t)
	}
	var hdr transport.TileHeader
	if err := transport.DecodeJSON(payload, &hdr); err != nil {
		return compositor.Tile{}, err
	}
	t, payload, err = h.conn.Receive()
	if err != nil {
		return compositor.Tile{}, err
	}
	if t != transport.MsgFrameDepth {
		return compositor.Tile{}, fmt.Errorf("core: expected tile frame+depth, got %s", t)
	}
	fb, err := marshal.DecodeFrame(payload)
	if err != nil {
		return compositor.Tile{}, err
	}
	return compositor.Tile{Rect: rect, FB: fb, Version: hdr.Version}, nil
}

var _ dataservice.RenderHandle = (*SocketHandle)(nil)
var _ dataservice.TileRenderer = (*SocketHandle)(nil)

// Deployment assembles a full RAVE installation: a UDDI registry served
// over HTTP, one data service, any number of render services, and the
// TCP listeners joining them.
type Deployment struct {
	Registry    *uddi.Registry
	RegistryURL string
	Data        *dataservice.Service

	clock vclock.Clock

	mu        sync.Mutex
	renders   map[string]*renderservice.Service
	listeners []net.Listener
	httpSrv   *http.Server
}

// NewDeployment starts a registry on a loopback port and creates the
// data service.
func NewDeployment(dataName string) (*Deployment, error) {
	reg := uddi.NewRegistry()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("core: registry listener: %w", err)
	}
	srv := &http.Server{Handler: uddi.NewServer(reg)}
	go srv.Serve(ln)
	d := &Deployment{
		Registry:    reg,
		RegistryURL: "http://" + ln.Addr().String(),
		Data:        dataservice.New(dataservice.Config{Name: dataName}),
		clock:       vclock.Real{},
		renders:     map[string]*renderservice.Service{},
		httpSrv:     srv,
	}
	return d, nil
}

// Proxy returns a fresh UDDI proxy on the deployment's registry.
func (d *Deployment) Proxy() *uddi.Proxy { return uddi.Connect(d.RegistryURL) }

// ServeData starts a TCP listener for the data service's direct-socket
// subscriptions, registers its access point in UDDI and returns the
// address.
func (d *Deployment) ServeData() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	d.track(ln)
	go acceptLoop(ln, func(c net.Conn) { d.Data.ServeConn(c); c.Close() })
	addr := ln.Addr().String()
	proxy := d.Proxy()
	_, err = proxy.RegisterService(BusinessName, d.Data.Name(), "tcp://"+addr, wsdl.DataServicePortType)
	if err != nil {
		return "", fmt.Errorf("core: register data service: %w", err)
	}
	return addr, nil
}

// AddRenderService creates a render service on the given device profile,
// starts its client-facing TCP listener, and registers it in UDDI.
// linkBps is the throughput estimate fed to the adaptive codec.
func (d *Deployment) AddRenderService(name string, dev device.Profile, workers int, linkBps float64) (*renderservice.Service, string, error) {
	rs := renderservice.New(renderservice.Config{Name: name, Device: dev, Workers: workers})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	d.track(ln)
	go acceptLoop(ln, func(c net.Conn) { rs.ServeClient(c, linkBps); c.Close() })
	addr := ln.Addr().String()
	proxy := d.Proxy()
	if _, err := proxy.RegisterService(BusinessName, name, "tcp://"+addr, wsdl.RenderServicePortType); err != nil {
		return nil, "", fmt.Errorf("core: register render service: %w", err)
	}
	d.mu.Lock()
	d.renders[name] = rs
	d.mu.Unlock()
	return rs, addr, nil
}

// ConnectRenderToData dials the data service and runs the render
// service's subscription loop in the background, returning once the
// bootstrap snapshot has been applied.
func (d *Deployment) ConnectRenderToData(rs *renderservice.Service, dataAddr, session string) error {
	conn, err := net.Dial("tcp", stripScheme(dataAddr))
	if err != nil {
		return err
	}
	ready := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		errc <- rs.SubscribeToData(conn, session, func(*renderservice.Session) { close(ready) })
		conn.Close()
	}()
	select {
	case <-ready:
		return nil
	case err := <-errc:
		if err == nil {
			err = fmt.Errorf("core: subscription ended before bootstrap")
		}
		return err
	case <-d.clock.After(30 * time.Second):
		conn.Close()
		return fmt.Errorf("core: bootstrap timed out")
	}
}

// ConnectRenderToDataResilient is ConnectRenderToData with failure
// recovery: the subscription redials with backoff when the socket breaks
// or stalls, re-bootstrapping the replica each time. It returns once the
// first bootstrap completes; the recovery loop then runs until ctx is
// canceled or the data service says goodbye cleanly.
func (d *Deployment) ConnectRenderToDataResilient(ctx context.Context, rs *renderservice.Service, dataAddr, session string, opts renderservice.SubscribeOpts) error {
	dial := func() (io.ReadWriteCloser, error) {
		return net.Dial("tcp", stripScheme(dataAddr))
	}
	ready := make(chan struct{})
	var once sync.Once
	errc := make(chan error, 1)
	go func() {
		errc <- rs.SubscribeToDataResilient(ctx, dial, session, opts, func(*renderservice.Session) {
			once.Do(func() { close(ready) })
		})
	}()
	select {
	case <-ready:
		return nil
	case err := <-errc:
		if err == nil {
			err = fmt.Errorf("core: subscription ended before bootstrap")
		}
		return err
	case <-d.clock.After(30 * time.Second):
		return fmt.Errorf("core: bootstrap timed out")
	}
}

// AccessScanner is the slice of the UDDI proxy that re-discovery needs:
// one incremental scan returning current access points for a technical
// model (*uddi.Proxy satisfies it).
type AccessScanner interface {
	ScanAccessPoints(tmodelName string) ([]string, error)
}

// DiscoverDialer returns a dialer that re-queries UDDI on every dial:
// it scans the registry for access points advertising tmodelName and
// connects to the first that answers. This is how a subscriber finds a
// promoted standby after its primary dies — the standby re-registers
// its access point, and the next reconnect attempt discovers it instead
// of hammering the dead address. connect maps an access point to a
// stream; nil means a plain TCP dial.
func DiscoverDialer(scanner AccessScanner, tmodelName string, connect func(accessPoint string) (io.ReadWriteCloser, error)) renderservice.Dialer {
	if connect == nil {
		connect = func(ap string) (io.ReadWriteCloser, error) {
			return net.Dial("tcp", stripScheme(ap))
		}
	}
	return func() (io.ReadWriteCloser, error) {
		points, err := scanner.ScanAccessPoints(tmodelName)
		if err != nil {
			return nil, fmt.Errorf("core: discovery scan: %w", err)
		}
		if len(points) == 0 {
			return nil, fmt.Errorf("core: no %s access points registered", tmodelName)
		}
		var lastErr error
		for _, ap := range points {
			rw, err := connect(ap)
			if err == nil {
				return rw, nil
			}
			lastErr = err
		}
		return nil, fmt.Errorf("core: all %d %s access points failed: %w", len(points), tmodelName, lastErr)
	}
}

// DataDialer is DiscoverDialer preconfigured for data services over TCP.
func DataDialer(proxy *uddi.Proxy) renderservice.Dialer {
	return DiscoverDialer(proxy, wsdl.DataServicePortType, nil)
}

// ReplicaScanner is the slice of the UDDI replica index that
// nearest-replica discovery needs: one query returning the session's
// live copies, pre-sorted by topology distance from the caller's
// region and then by caught-up-ness (*uddi.Proxy satisfies it).
type ReplicaScanner interface {
	QueryReplicas(session, fromRegion string, now time.Time) ([]uddi.Replica, error)
}

// NearestReplicaDialer returns a dialer that re-queries the replica
// index on every dial and connects to the topologically nearest live
// copy of the session: in-region rows first, the most caught-up copy
// within each distance band. This is how a read-mostly subscriber in
// region B avoids streaming its bootstrap across the WAN when a replica
// lives next door — and how it finds a *surviving* copy when its own
// region's primary is cut off by a partition. Rows without an access
// point are skipped; fallback (may be nil) is tried when the index has
// no usable rows or every access point fails. connect maps an access
// point to a stream; nil means a plain TCP dial. clock supplies the
// liveness timestamp for TTL'd rows (nil means the real clock).
func NearestReplicaDialer(scanner ReplicaScanner, clock vclock.Clock, session, fromRegion string, fallback renderservice.Dialer, connect func(accessPoint string) (io.ReadWriteCloser, error)) renderservice.Dialer {
	if clock == nil {
		clock = vclock.Real{}
	}
	if connect == nil {
		connect = func(ap string) (io.ReadWriteCloser, error) {
			return net.Dial("tcp", stripScheme(ap))
		}
	}
	return func() (io.ReadWriteCloser, error) {
		rows, err := scanner.QueryReplicas(session, fromRegion, clock.Now())
		if err != nil && fallback == nil {
			return nil, fmt.Errorf("core: replica query: %w", err)
		}
		var lastErr error
		for _, rep := range rows {
			if rep.AccessPoint == "" {
				continue
			}
			rw, cerr := connect(rep.AccessPoint)
			if cerr == nil {
				return rw, nil
			}
			lastErr = cerr
		}
		if fallback != nil {
			return fallback()
		}
		if lastErr != nil {
			return nil, fmt.Errorf("core: every replica of %q failed: %w", session, lastErr)
		}
		return nil, fmt.Errorf("core: no live replicas of %q registered", session)
	}
}

// DialThin connects a thin client to a render service address.
func (d *Deployment) DialThin(renderAddr, user, session string) (*rthin.Thin, error) {
	conn, err := net.Dial("tcp", stripScheme(renderAddr))
	if err != nil {
		return nil, err
	}
	return rthin.DialThin(conn, user, session)
}

// DialHandle connects a socket render handle (for dataset distribution)
// to a render service address.
func (d *Deployment) DialHandle(renderAddr, name, session string) (*SocketHandle, error) {
	conn, err := net.Dial("tcp", stripScheme(renderAddr))
	if err != nil {
		return nil, err
	}
	return DialSocketHandle(conn, name, session)
}

// Close shuts down listeners and the registry server.
func (d *Deployment) Close() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, ln := range d.listeners {
		ln.Close()
	}
	if d.httpSrv != nil {
		d.httpSrv.Close()
	}
}

func (d *Deployment) track(ln net.Listener) {
	d.mu.Lock()
	d.listeners = append(d.listeners, ln)
	d.mu.Unlock()
}

func acceptLoop(ln net.Listener, handle func(net.Conn)) {
	for {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		go handle(c)
	}
}

// stripScheme removes a tcp:// prefix from UDDI access points.
func stripScheme(addr string) string {
	const p = "tcp://"
	if len(addr) > len(p) && addr[:len(p)] == p {
		return addr[len(p):]
	}
	return addr
}
