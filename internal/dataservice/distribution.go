package dataservice

import (
	"context"
	"fmt"
	"image"
	"sort"
	"sync"
	"time"

	"repro/internal/balance"
	"repro/internal/compositor"
	"repro/internal/raster"
	"repro/internal/retry"
	"repro/internal/scene"
	"repro/internal/transport"
	"repro/internal/vclock"
	"repro/internal/wsdl"
)

// RenderHandle is the data service's view of a connected render service:
// enough to interrogate capacity, hand it a scene subset and collect the
// rendered frame+depth buffer. In-process adapters and socket adapters
// both satisfy it.
type RenderHandle interface {
	// Name identifies the render service.
	Name() string
	// Capacity interrogates the service (§3.2.5).
	Capacity() (transport.CapacityReport, error)
	// RenderSubset renders the given scene subset with the shared camera
	// and returns the frame+depth buffer for compositing. The deadline is
	// the frame's absolute budget, propagated so the service's admission
	// control can decline infeasible work; the zero time means unbounded.
	RenderSubset(subset *scene.Scene, cam transport.CameraState, w, h int, deadline time.Time) (*raster.Framebuffer, error)
}

// Distributor manages a session's dataset distribution across render
// services, its workload migration, and — when services fail mid-session
// — the recovery path: failure detection via broken sockets or missed
// load reports, reassignment of orphaned work to survivors, and UDDI
// recruitment of replacements.
type Distributor struct {
	sess *Session

	mu         sync.Mutex
	handles    map[string]RenderHandle
	assignment balance.Assignment
	engine     *balance.MigrationEngine
	lastSeen   map[string]time.Time
	failures   map[string]int
	// lastFrame is the most recent assembled frame — the degraded-tile
	// fallback when a straggler misses the frame deadline.
	lastFrame *raster.Framebuffer

	recruitSrc     RecruitSource
	recruitConnect Connector
	recruitPolicy  retry.Policy
}

// NewDistributor creates the session's distributor with the given
// migration thresholds.
func (sess *Session) NewDistributor(th balance.Thresholds) *Distributor {
	return &Distributor{
		sess:     sess,
		handles:  map[string]RenderHandle{},
		engine:   balance.NewMigrationEngine(th),
		lastSeen: map[string]time.Time{},
		failures: map[string]int{},
	}
}

// clock returns the owning service's time source.
func (d *Distributor) clock() vclock.Clock { return d.sess.svc.cfg.Clock }

// AddService attaches a render service for distribution.
func (d *Distributor) AddService(h RenderHandle) error {
	cap, err := h.Capacity()
	if err != nil {
		return fmt.Errorf("dataservice: capacity interrogation of %s: %w", h.Name(), err)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.handles[h.Name()] = h
	d.engine.UpdateCapacity(capacityOf(cap))
	d.lastSeen[h.Name()] = d.clock().Now()
	return nil
}

// RemoveService detaches a render service (its nodes return to the
// unassigned pool on the next Distribute call).
func (d *Distributor) RemoveService(name string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.handles, name)
	d.engine.Remove(name)
	delete(d.assignment, name)
	delete(d.lastSeen, name)
}

// ServiceNames lists attached render services, sorted.
func (d *Distributor) ServiceNames() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []string
	for n := range d.handles {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// capacityOf converts a wire capacity report to the balancer's view.
func capacityOf(c transport.CapacityReport) balance.ServiceCapacity {
	fps := c.TargetFPS
	if fps <= 0 {
		fps = 10
	}
	return balance.ServiceCapacity{
		Name:         c.Name,
		WorkPerFrame: c.PolysPerSecond / fps,
		TextureBytes: c.TextureMemory,
	}
}

// nodeItems lists the session's distributable payload nodes with costs.
func (d *Distributor) nodeItems() []balance.NodeItem {
	var items []balance.NodeItem
	d.sess.Scene(func(sc *scene.Scene) {
		for _, id := range sc.PayloadIDs() {
			cost, err := sc.SubtreeCost(id)
			if err != nil {
				continue
			}
			// Only the node's own payload: children are separate items.
			if n := sc.Node(id); n != nil && n.Payload != nil {
				cost = n.Payload.Cost()
			}
			items = append(items, balance.NodeItem{ID: id, Cost: cost})
		}
	})
	return items
}

// Distribute (re)plans the dataset distribution: interrogate every
// attached service's current capacity and pack the scene's payload nodes
// onto them. Returns balance.ErrInsufficient when the attached services
// cannot hold the dataset — the caller may then Recruit.
func (d *Distributor) Distribute() (balance.Assignment, error) {
	d.mu.Lock()
	handles := make([]RenderHandle, 0, len(d.handles))
	for _, h := range d.handles {
		handles = append(handles, h)
	}
	d.mu.Unlock()

	var caps []balance.ServiceCapacity
	for _, h := range handles {
		c, err := h.Capacity()
		if err != nil {
			return nil, fmt.Errorf("dataservice: capacity of %s: %w", h.Name(), err)
		}
		bc := capacityOf(c)
		caps = append(caps, bc)
		d.mu.Lock()
		d.engine.UpdateCapacity(bc)
		d.mu.Unlock()
	}
	sort.Slice(caps, func(i, j int) bool { return caps[i].Name < caps[j].Name })

	asg, err := balance.DistributeNodes(d.nodeItems(), caps)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	d.assignment = asg
	d.mu.Unlock()
	return asg, nil
}

// frameDeadline computes the absolute deadline for a distributed frame
// starting now, from the service's configured per-frame budget. A zero
// budget yields the zero time — unbounded, for deployments that never
// configured a frame deadline.
func (d *Distributor) frameDeadline() time.Time {
	budget := d.sess.svc.cfg.Hedge.FrameDeadline
	if budget <= 0 {
		return time.Time{}
	}
	return d.clock().Now().Add(budget)
}

// Assignment returns the current assignment (service -> node IDs).
func (d *Distributor) Assignment() balance.Assignment {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := balance.Assignment{}
	for k, v := range d.assignment {
		out[k] = append([]scene.NodeID(nil), v...)
	}
	return out
}

// RenderDistributed performs one distributed frame: every assigned
// service renders its scene subset (with ancestors retained for world
// orientation) under the shared camera, and the frame+depth buffers are
// depth-composited (§3.2.5). The composition is order-independent since
// payloads are opaque.
func (d *Distributor) RenderDistributed(w, h int) (*raster.Framebuffer, error) {
	fb, failures, err := d.renderOnce(w, h)
	if err != nil || len(failures) == 0 {
		return fb, err
	}
	names := make([]string, 0, len(failures))
	for name := range failures {
		names = append(names, name)
	}
	sort.Strings(names)
	return nil, fmt.Errorf("dataservice: subset render on %s: %w", names[0], failures[names[0]])
}

// PlanTiles computes the framebuffer-distribution tiling for a w x h
// image across the attached services, proportional to speed (§3.2.5).
func (d *Distributor) PlanTiles(w, h int) (map[string]image.Rectangle, error) {
	d.mu.Lock()
	handles := make([]RenderHandle, 0, len(d.handles))
	for _, h := range d.handles {
		handles = append(handles, h)
	}
	d.mu.Unlock()
	var caps []balance.ServiceCapacity
	for _, hd := range handles {
		c, err := hd.Capacity()
		if err != nil {
			return nil, err
		}
		caps = append(caps, capacityOf(c))
	}
	return balance.DistributeTiles(w, h, caps), nil
}

// handleLoadReport feeds the migration engine from a subscriber's load
// report. It is called from the socket serve loop; in-process setups call
// ReportLoad directly.
func (sess *Session) handleLoadReport(lr transport.LoadReport) {
	sess.mu.Lock()
	d := sess.distributor
	sess.mu.Unlock()
	if d != nil {
		d.ReportLoad(lr)
	}
}

// AttachDistributor makes the distributor receive the session's load
// reports.
func (sess *Session) AttachDistributor(d *Distributor) {
	sess.mu.Lock()
	sess.distributor = d
	sess.mu.Unlock()
}

// ReportLoad records one load report and returns whether the reporting
// service is overloaded (§3.2.7). The report also refreshes the
// service's liveness timestamp for failure detection.
func (d *Distributor) ReportLoad(lr transport.LoadReport) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, attached := d.handles[lr.Name]; attached {
		d.lastSeen[lr.Name] = d.clock().Now()
	}
	return d.engine.ReportLoad(lr.Name, lr.FPS)
}

// PlanMigration proposes node moves per the engine's thresholds, based
// on the current assignment and node costs.
func (d *Distributor) PlanMigration() []balance.Move {
	items := map[scene.NodeID]balance.NodeItem{}
	for _, it := range d.nodeItems() {
		items[it.ID] = it
	}
	d.mu.Lock()
	assigned := map[string][]balance.NodeItem{}
	for name, ids := range d.assignment {
		for _, id := range ids {
			if it, ok := items[id]; ok {
				assigned[name] = append(assigned[name], it)
			}
		}
	}
	moves := d.engine.PlanMigration(assigned)
	// Apply the moves to the assignment.
	for _, mv := range moves {
		src := d.assignment[mv.From]
		for i, id := range src {
			if id == mv.NodeID {
				d.assignment[mv.From] = append(src[:i], src[i+1:]...)
				break
			}
		}
		d.assignment[mv.To] = append(d.assignment[mv.To], mv.NodeID)
	}
	d.mu.Unlock()
	return moves
}

// LoadSnapshot exposes the migration engine's per-service view, for
// diagnostics and tests.
func (d *Distributor) LoadSnapshot() []balance.ServiceLoad {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.engine.Snapshot()
}

// NeedRecruitment reports whether migration is blocked on fresh capacity.
func (d *Distributor) NeedRecruitment() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.engine.NeedRecruitment()
}

// Connector dials a render service discovered at a UDDI access point and
// returns a handle on it.
type Connector func(accessPoint string) (RenderHandle, error)

// RecruitSource is the discovery surface recruitment needs; *uddi.Proxy
// satisfies it, and the chaos suite substitutes fault-injecting sources.
type RecruitSource interface {
	// ScanAccessPoints lists access points advertising a tModel.
	ScanAccessPoints(tmodelName string) ([]string, error)
}

// Recruit discovers render services through UDDI that are not yet
// attached to this session and connects them — "the data server uses
// UDDI to discover additional render services that are not connected to
// the data service. These underutilised services can then be recruited"
// (§3.2.7). Returns the names of newly attached services.
func (d *Distributor) Recruit(proxy RecruitSource, connect Connector) ([]string, error) {
	points, err := proxy.ScanAccessPoints(wsdl.RenderServicePortType)
	if err != nil {
		return nil, fmt.Errorf("dataservice: recruitment scan: %w", err)
	}
	d.mu.Lock()
	attached := make(map[string]bool, len(d.handles))
	for n := range d.handles {
		attached[n] = true
	}
	d.mu.Unlock()

	var recruited []string
	for _, ap := range points {
		h, err := connect(ap)
		if err != nil {
			continue // unreachable services are skipped, not fatal
		}
		if attached[h.Name()] {
			continue
		}
		if err := d.AddService(h); err != nil {
			continue
		}
		attached[h.Name()] = true
		recruited = append(recruited, h.Name())
	}
	if len(recruited) == 0 {
		return nil, fmt.Errorf("dataservice: recruitment found no new render services")
	}
	return recruited, nil
}

// SetRecruiter arms automatic recruitment during failure recovery: when
// reassignment of orphaned work to survivors fails for lack of capacity,
// the distributor scans src for fresh render services under the retry
// policy before degrading to overcommitted placement.
func (d *Distributor) SetRecruiter(src RecruitSource, connect Connector, policy retry.Policy) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.recruitSrc = src
	d.recruitConnect = connect
	d.recruitPolicy = policy
}

// FailService marks an attached render service as failed — detected via
// a broken socket, a render error, or missed load reports — detaching it
// and returning the node IDs it was rendering (now orphaned work to
// reassign).
func (d *Distributor) FailService(name string) []scene.NodeID {
	d.mu.Lock()
	defer d.mu.Unlock()
	orphans := append([]scene.NodeID(nil), d.assignment[name]...)
	delete(d.assignment, name)
	delete(d.handles, name)
	d.engine.Remove(name)
	delete(d.lastSeen, name)
	d.failures[name]++
	return orphans
}

// DeadServices lists attached services whose last liveness signal (load
// report or attachment) is older than timeout — the paper's missed-
// load-report failure signal. The caller typically feeds each name to
// FailService and recovers the orphans.
func (d *Distributor) DeadServices(timeout time.Duration) []string {
	now := d.clock().Now()
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []string
	for name := range d.handles {
		if seen, ok := d.lastSeen[name]; ok && now.Sub(seen) > timeout {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// FailedServices lists every service ever marked failed, sorted.
func (d *Distributor) FailedServices() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []string
	for n := range d.failures {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// mergeAssignment folds reassigned orphans into the live assignment.
func (d *Distributor) mergeAssignment(asg balance.Assignment) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.assignment == nil {
		d.assignment = balance.Assignment{}
	}
	for name, ids := range asg {
		d.assignment[name] = append(d.assignment[name], ids...)
	}
}

// survivorCaps interrogates every attached service and returns capacities
// with Assigned reflecting the live assignment, so reassignment sees true
// spare capacity. Services whose interrogation fails are skipped here;
// the next render round surfaces them as failures.
func (d *Distributor) survivorCaps() []balance.ServiceCapacity {
	costByID := map[scene.NodeID]scene.Cost{}
	for _, it := range d.nodeItems() {
		costByID[it.ID] = it.Cost
	}
	d.mu.Lock()
	handles := make(map[string]RenderHandle, len(d.handles))
	for k, v := range d.handles {
		handles[k] = v
	}
	asg := make(map[string][]scene.NodeID, len(d.assignment))
	for k, v := range d.assignment {
		asg[k] = append([]scene.NodeID(nil), v...)
	}
	d.mu.Unlock()

	var caps []balance.ServiceCapacity
	for name, h := range handles {
		c, err := h.Capacity()
		if err != nil {
			continue
		}
		bc := capacityOf(c)
		for _, id := range asg[name] {
			cost := costByID[id]
			bc.Assigned += cost.Work()
			bc.AssignedBytes += cost.Bytes
		}
		caps = append(caps, bc)
	}
	sort.Slice(caps, func(i, j int) bool { return caps[i].Name < caps[j].Name })
	return caps
}

// recoverOrphans places orphaned nodes back onto the session: first onto
// survivors' spare capacity, then — if that is insufficient and a
// recruiter is armed — after recruiting replacements through UDDI with
// retry, and finally by overcommitting survivors so frames keep flowing
// (graceful degradation) rather than stalling the session.
func (d *Distributor) recoverOrphans(ctx context.Context, orphanIDs []scene.NodeID, rep *RecoveryReport) error {
	if len(orphanIDs) == 0 {
		return nil
	}
	costByID := map[scene.NodeID]scene.Cost{}
	for _, it := range d.nodeItems() {
		costByID[it.ID] = it.Cost
	}
	seen := map[scene.NodeID]bool{}
	var orphans []balance.NodeItem
	for _, id := range orphanIDs {
		if seen[id] {
			continue
		}
		seen[id] = true
		orphans = append(orphans, balance.NodeItem{ID: id, Cost: costByID[id]})
	}

	tryPlace := func(overcommit bool) error {
		asg, err := balance.ReassignNodes(orphans, d.survivorCaps(), overcommit)
		if err != nil {
			return err
		}
		d.mergeAssignment(asg)
		rep.Reassigned += len(orphans)
		return nil
	}

	if err := tryPlace(false); err == nil {
		return nil
	}

	d.mu.Lock()
	src, connect, policy := d.recruitSrc, d.recruitConnect, d.recruitPolicy
	d.mu.Unlock()
	if src != nil && connect != nil {
		var newNames []string
		// Recruitment failure is not fatal: overcommit still degrades
		// gracefully below.
		_ = retry.Do(ctx, d.clock(), policy, func() error {
			names, err := d.Recruit(src, connect)
			if err != nil {
				return err
			}
			newNames = append(newNames, names...)
			return nil
		})
		rep.Recruited = append(rep.Recruited, newNames...)
		if err := tryPlace(false); err == nil {
			return nil
		}
	}

	if err := tryPlace(true); err != nil {
		return fmt.Errorf("dataservice: no surviving render services for %d orphaned nodes: %w", len(orphans), err)
	}
	rep.Overcommitted = true
	return nil
}

// renderOnce performs one distributed-frame attempt, isolating failures:
// instead of aborting on the first broken service, it returns the set of
// services that failed so recovery can reassign their work. The frame is
// only returned when every assigned service rendered.
func (d *Distributor) renderOnce(w, h int) (*raster.Framebuffer, map[string]error, error) {
	d.mu.Lock()
	asg := make(map[string][]scene.NodeID, len(d.assignment))
	for k, v := range d.assignment {
		asg[k] = v
	}
	handles := make(map[string]RenderHandle, len(d.handles))
	for k, v := range d.handles {
		handles[k] = v
	}
	d.mu.Unlock()
	if len(asg) == 0 {
		return nil, nil, fmt.Errorf("dataservice: no distribution planned")
	}
	cam := d.sess.Camera()
	deadline := d.frameDeadline()

	names := make([]string, 0, len(asg))
	for name := range asg {
		names = append(names, name)
	}
	sort.Strings(names)

	failures := map[string]error{}
	frames := make([]*raster.Framebuffer, len(names))
	errs := make([]error, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		handle, ok := handles[name]
		if !ok {
			failures[name] = fmt.Errorf("dataservice: assigned service %s not attached", name)
			continue
		}
		var subset *scene.Scene
		var err error
		d.sess.Scene(func(sc *scene.Scene) {
			subset, err = sc.ExtractSubset(asg[name])
		})
		if err != nil {
			return nil, nil, err
		}
		wg.Add(1)
		go func(i int, handle RenderHandle, subset *scene.Scene) {
			defer wg.Done()
			frames[i], errs[i] = handle.RenderSubset(subset, cam, w, h, deadline)
		}(i, handle, subset)
	}
	wg.Wait()

	parts := make([]*raster.Framebuffer, 0, len(names))
	for i, name := range names {
		if _, bad := failures[name]; bad {
			continue
		}
		if errs[i] != nil {
			failures[name] = errs[i]
			continue
		}
		parts = append(parts, frames[i])
	}
	if len(failures) > 0 {
		return nil, failures, nil
	}
	fb, err := compositor.CompositeAll(w, h, parts...)
	if err != nil {
		return nil, nil, err
	}
	return fb, nil, nil
}

// maxRecoveryRounds bounds how many failure-recovery cycles one frame
// may trigger before the session gives up.
const maxRecoveryRounds = 4

// RecoveryReport summarizes what failure recovery did for one frame.
type RecoveryReport struct {
	// Failed lists services detected failed this frame (detection order).
	Failed []string
	// Reassigned counts orphaned nodes placed onto other services.
	Reassigned int
	// Recruited lists services newly attached via UDDI during recovery.
	Recruited []string
	// Overcommitted is set when survivors were loaded past capacity to
	// keep frames flowing.
	Overcommitted bool
	// Rounds is the number of render attempts (1 = no failures).
	Rounds int
}

// RenderDistributedResilient renders one distributed frame like
// RenderDistributed, but survives render-service failures mid-frame: a
// failed service is detached, its orphaned nodes are reassigned to
// survivors (recruiting replacements through UDDI when capacity runs
// short), and the frame is re-rendered — so thin clients keep receiving
// frames while the fabric degrades and heals (§3.2.7).
func (d *Distributor) RenderDistributedResilient(ctx context.Context, w, h int) (*raster.Framebuffer, *RecoveryReport, error) {
	rep := &RecoveryReport{}
	for round := 0; ; round++ {
		if err := ctx.Err(); err != nil {
			return nil, rep, err
		}
		rep.Rounds = round + 1
		fb, failures, err := d.renderOnce(w, h)
		if err != nil {
			return nil, rep, err
		}
		if len(failures) == 0 {
			return fb, rep, nil
		}
		if round >= maxRecoveryRounds {
			return nil, rep, fmt.Errorf("dataservice: recovery exhausted after %d rounds (%d services still failing)",
				rep.Rounds, len(failures))
		}
		names := make([]string, 0, len(failures))
		for n := range failures {
			names = append(names, n)
		}
		sort.Strings(names)
		var orphans []scene.NodeID
		for _, n := range names {
			rep.Failed = append(rep.Failed, n)
			orphans = append(orphans, d.FailService(n)...)
		}
		if err := d.recoverOrphans(ctx, orphans, rep); err != nil {
			return nil, rep, err
		}
	}
}
