package dataservice

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/marshal"
	"repro/internal/scene"
	"repro/internal/transport"
)

// Data-service mirroring (§6): "we will consider the distribution of the
// data across several data servers ... and also support a fail-safe
// mechanism, where data servers could mirror each other." A Mirror
// subscribes a backup data service's session to a primary session: every
// update and camera change is applied to the backup's own authoritative
// copy, which therefore stays one fan-out behind at most. When the
// primary dies, Promote detaches the mirror and the backup session keeps
// serving — same name, same scene, same version.
//
// The mirror is a VersionedSubscriber with a ready gate: ops that fan
// out while the bootstrap snapshot (or gap replay) is still being
// installed are buffered, then drained in version order once the
// install lands. Without the gate an op racing the install could be
// clobbered by the snapshot — the version tags make the race harmless.
type Mirror struct {
	primary *Session
	backup  *Session
	subName string

	mu       sync.Mutex
	ready    bool
	pending  []ReplayOp // version-tagged ops held back until ready
	promoted bool
	applyErr error
}

// MirrorSession attaches backup service's new session (with the same
// name) as a mirror of primary. The backup session starts from a
// snapshot and then follows the update stream.
func MirrorSession(primary *Session, backupSvc *Service) (*Mirror, error) {
	m, _, err := MirrorSessionSince(primary, backupSvc)
	return m, err
}

// MirrorSessionSince attaches backup service's session as a mirror of
// primary, resuming from an existing copy when the backup already
// holds the session: if the primary's op history is contiguous from
// the backup's version, only the gap is replayed (resumed true) —
// the re-replication path after a promotion or heal, where shipping a
// full snapshot would waste the surviving copy. Otherwise the backup
// session is (re)seeded with a full bootstrap snapshot.
func MirrorSessionSince(primary *Session, backupSvc *Service) (m *Mirror, resumed bool, err error) {
	if primary == nil || backupSvc == nil {
		return nil, false, fmt.Errorf("dataservice: mirror needs a primary session and a backup service")
	}
	backup, adopted := backupSvc.Session(primary.Name)
	if !adopted {
		backup, err = backupSvc.CreateSession(primary.Name)
		if err != nil {
			return nil, false, fmt.Errorf("dataservice: backup session: %w", err)
		}
	}
	m = &Mirror{
		primary: primary,
		backup:  backup,
		subName: "mirror:" + backupSvc.Name(),
	}
	since := uint64(0)
	if adopted {
		since = backup.Version()
	}
	// Replica seeding is infrastructure traffic: it charges the
	// bootstrap-bytes series below but stays out of BootstrapStats,
	// which counts client-visible bootstraps only.
	ops, snapshot, _, err := primary.subscribeSince(m.subName, m, since, false)
	if err != nil {
		return nil, false, err
	}
	// From here the fan-out can already deliver ops; they buffer in
	// m.pending until the install below completes.
	if snapshot != nil {
		primary.countBootstrapBytes(snapshot, backupSvc.Region())
		backup.InstallScene(snapshot)
	} else {
		resumed = true
		for _, rop := range ops {
			if rop.Version != backup.Version()+1 {
				continue // backup already past this op
			}
			if err := backup.ApplyReplicated(rop.Op, m.subName); err != nil {
				primary.Unsubscribe(m.subName)
				return nil, false, fmt.Errorf("dataservice: mirror gap replay: %w", err)
			}
		}
	}
	if err := backup.SetCamera(primary.Camera(), ""); err != nil {
		primary.Unsubscribe(m.subName)
		return nil, false, err
	}
	m.mu.Lock()
	m.ready = true
	m.drainLocked()
	m.mu.Unlock()
	return m, resumed, nil
}

// countBootstrapBytes charges a bootstrap snapshot's marshaled size to
// the session's bootstrap-bytes counter, labelled by whether the bytes
// stayed in-region or crossed regions. The partition chaos scenario
// asserts the cross series stays flat while a region is cut.
func (sess *Session) countBootstrapBytes(sc *scene.Scene, toRegion string) {
	sess.noteBootstrapBytes(int64(marshal.SceneSize(sc)), toRegion)
}

// noteBootstrapBytes charges n bootstrap bytes shipped toward toRegion
// to the local or cross series.
func (sess *Session) noteBootstrapBytes(n int64, toRegion string) {
	metrics := sess.svc.cfg.Metrics
	if crossRegion(sess.svc.cfg.Region, toRegion) {
		metrics.Counter(sess.svc.cfg.Name, "bootstrap_bytes_total", "cross").Add(n)
	} else {
		metrics.Counter(sess.svc.cfg.Name, "bootstrap_bytes_total", "local").Add(n)
	}
}

// crossRegion reports whether two "region" / "region/zone" localities
// sit in different regions. Unknown (empty) localities count as local:
// a single-site deployment that never configures regions has no cross
// traffic by definition.
func crossRegion(a, b string) bool {
	ra, _, _ := strings.Cut(a, "/")
	rb, _, _ := strings.Cut(b, "/")
	return ra != rb && ra != "" && rb != ""
}

// SendOp implements Subscriber for completeness; the fan-out prefers
// SendOpVer. Unversioned ops cannot be ordered against the bootstrap,
// so they apply only once the mirror is ready.
func (m *Mirror) SendOp(op scene.Op) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.promoted {
		return fmt.Errorf("dataservice: mirror already promoted")
	}
	if !m.ready {
		return fmt.Errorf("dataservice: unversioned op before mirror bootstrap")
	}
	if err := m.backup.ApplyReplicated(op, m.subName); err != nil {
		m.applyErr = err
		return err
	}
	return nil
}

// SendOpVer implements VersionedSubscriber: replicate the op onto the
// backup in version order, buffering ops that arrive before the
// bootstrap install (or ahead of a slower sibling fan-out goroutine).
func (m *Mirror) SendOpVer(op scene.Op, version uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.promoted {
		return fmt.Errorf("dataservice: mirror already promoted")
	}
	if !m.ready {
		m.pending = append(m.pending, ReplayOp{Version: version, Op: op})
		return nil
	}
	m.applyLocked(op, version)
	return m.applyErr
}

// applyLocked applies one versioned op under m.mu: duplicates (at or
// below the backup's version) drop, the next-in-sequence op applies and
// drains any buffered successors, and ahead-of-sequence ops buffer.
func (m *Mirror) applyLocked(op scene.Op, version uint64) {
	cur := m.backup.Version()
	switch {
	case version <= cur:
		// Already covered by the snapshot or an earlier apply.
	case version == cur+1:
		if err := m.backup.ApplyReplicated(op, m.subName); err != nil {
			m.applyErr = err
			return
		}
		m.drainLocked()
	default:
		m.pending = append(m.pending, ReplayOp{Version: version, Op: op})
	}
}

// drainLocked applies buffered ops that have become contiguous with
// the backup's version, dropping ones the backup is already past.
func (m *Mirror) drainLocked() {
	sort.Slice(m.pending, func(i, j int) bool { return m.pending[i].Version < m.pending[j].Version })
	for len(m.pending) > 0 {
		next := m.pending[0]
		cur := m.backup.Version()
		if next.Version <= cur {
			m.pending = m.pending[1:]
			continue
		}
		if next.Version != cur+1 {
			return // gap: wait for the missing op
		}
		if err := m.backup.ApplyReplicated(next.Op, m.subName); err != nil {
			m.applyErr = err
			return
		}
		m.pending = m.pending[1:]
	}
}

// SendCamera implements Subscriber.
func (m *Mirror) SendCamera(cam transport.CameraState) error {
	return m.backup.SetCamera(cam, m.subName)
}

// Lag returns how many versions the backup trails the primary (0 when
// fully caught up).
func (m *Mirror) Lag() uint64 {
	p := m.primary.Version()
	b := m.backup.Version()
	if b >= p {
		return 0
	}
	return p - b
}

// AckedVersion returns the version the backup has applied through. A
// mirror with a replication failure reports 0: its copy can no longer
// be trusted as caught up.
func (m *Mirror) AckedVersion() uint64 {
	m.mu.Lock()
	failed := m.applyErr != nil
	m.mu.Unlock()
	if failed {
		return 0
	}
	return m.backup.Version()
}

// Err reports a replication failure, if any occurred.
func (m *Mirror) Err() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.applyErr
}

// Backup exposes the standby session (e.g. to attach standby render
// services before a failover).
func (m *Mirror) Backup() *Session { return m.backup }

// Promote detaches from the primary and returns the backup session as
// the new authority. Safe to call after the primary has died — the
// unsubscribe is local state on the (possibly defunct) primary.
func (m *Mirror) Promote() (*Session, error) {
	m.mu.Lock()
	if m.promoted {
		m.mu.Unlock()
		return nil, fmt.Errorf("dataservice: mirror already promoted")
	}
	m.promoted = true
	m.mu.Unlock()
	m.primary.Unsubscribe(m.subName)
	return m.backup, nil
}

// Detach stops following the primary without promoting: the backup
// keeps its (now frozen) copy, which a later MirrorSessionSince can
// resume gap-only. Idempotent with Promote — whichever runs first wins.
func (m *Mirror) Detach() {
	m.mu.Lock()
	m.promoted = true
	m.mu.Unlock()
	m.primary.Unsubscribe(m.subName)
}
