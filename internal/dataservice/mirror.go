package dataservice

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/follow"
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
// The mirror is an in-process follower: the primary's fan-out delivers
// its bootstrap first and its ops in version order, and a follow.Follower
// applies them to the backup under the one version rule. Its resync is
// local — it installs a fresh primary snapshot in place.
type Mirror struct {
	primary *Session
	backup  *Session
	subName string

	mu       sync.Mutex
	follower *follow.Follower
	promoted bool
	applyErr error
}

// Replica adapts a session that follows a primary to follow.Replica:
// snapshots install in place, and ops apply through ApplyReplicated,
// past a standby's read-only guard.
type Replica struct{ *Session }

// Install implements follow.Replica.
func (r Replica) Install(sc *scene.Scene) error {
	r.InstallScene(sc)
	return nil
}

// ApplyOp implements follow.Replica.
func (r Replica) ApplyOp(op scene.Op) error { return r.ApplyReplicated(op, "") }

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
	// Replica seeding is infrastructure traffic: it charges the
	// bootstrap-bytes series but stays out of BootstrapStats, which
	// counts client-visible bootstraps only.
	install := func(sc *scene.Scene) error {
		primary.countBootstrapBytes(sc, backupSvc.Region())
		return m.follower.Install(sc)
	}
	// The mirror's resync is local: a fresh primary snapshot, in place.
	m.follower = follow.New(Replica{backup}, adopted, func() error {
		return install(primary.Snapshot())
	})
	since := uint64(0)
	if adopted {
		since = backup.Version()
	}
	// Ops the primary commits from here on queue behind the gate until
	// the bootstrap below is in.
	ops, snapshot, _, err := primary.attach(m.subName, m, since, false)
	if err != nil {
		return nil, false, err
	}
	m.mu.Lock()
	if snapshot != nil {
		err = install(snapshot)
	}
	for _, rop := range ops {
		if err == nil {
			_, err = m.follower.Op(rop.Version, rop.Op)
		}
	}
	m.mu.Unlock()
	if err == nil {
		err = backup.SetCamera(primary.Camera(), "")
	}
	if err != nil {
		primary.Unsubscribe(m.subName)
		return nil, false, fmt.Errorf("dataservice: mirror bootstrap: %w", err)
	}
	// The bootstrap is in. A queued op that fails to apply is recorded
	// in m.applyErr (Err, AckedVersion) like any later delivery's.
	_ = primary.open(m.subName)
	return m, snapshot == nil, nil
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
// SendOpVer. An unversioned op carries no sequence to check, so it
// applies as it comes.
func (m *Mirror) SendOp(op scene.Op) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.promoted {
		return fmt.Errorf("dataservice: mirror already promoted")
	}
	if err := m.backup.ApplyReplicated(op, m.subName); err != nil {
		m.applyErr = err
		return err
	}
	return nil
}

// SendOpVer implements VersionedSubscriber: the op goes through the
// follower core onto the backup.
func (m *Mirror) SendOpVer(op scene.Op, version uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.promoted {
		return fmt.Errorf("dataservice: mirror already promoted")
	}
	if m.applyErr == nil {
		_, m.applyErr = m.follower.Op(version, op)
	}
	return m.applyErr
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
