// Package failover makes the data service highly available: a primary
// holds a UDDI-registered lease and renews it on the virtual clock
// (Keeper); a hot standby follows the primary's versioned op stream
// over the normal transport path, acknowledging applied versions and
// serving read-only bootstrap snapshots (Standby); and a Monitor on the
// standby side watches the lease, promoting the standby — claim the
// lease at the next epoch, lift the read-only guard, re-register the
// access point — once the primary misses enough renewals for the lease
// to lapse. The registration epoch is the split-brain guard: a deposed
// primary that comes back finds its renewals rejected as stale and must
// stand down.
package failover

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/dataservice"
	"repro/internal/marshal"
	"repro/internal/scene"
	"repro/internal/transport"
	"repro/internal/uddi"
	"repro/internal/vclock"
)

// LeaseAPI is the slice of the registry the failover protocol needs.
// Both *uddi.Registry (in-process) and *uddi.Proxy (SOAP) satisfy it.
type LeaseAPI interface {
	AcquireLease(service, holder string, ttl time.Duration, now time.Time) (uddi.Lease, error)
	RenewLease(service, holder string, epoch uint64, ttl time.Duration, now time.Time) (uddi.Lease, error)
	GetLease(service string, now time.Time) (uddi.Lease, bool, error)
	ReleaseLease(service, holder string, epoch uint64) error
}

// ErrReplicationLost means the stream from the primary died without a
// clean Bye — the standby keeps its replica and waits for the Monitor
// to decide whether a failover is due.
var ErrReplicationLost = errors.New("failover: replication stream lost")

// ErrPromoted reports that the standby was promoted mid-stream and has
// stopped following the (now deposed) primary.
var ErrPromoted = errors.New("failover: standby promoted")

// Standby follows a primary session's op stream into a session on its
// own data service, which therefore can serve read-only bootstrap
// snapshots to subscribers and take over authoritatively on promotion.
type Standby struct {
	// Service is the standby's own data service.
	Service *dataservice.Service
	// SessionName is the replicated session.
	SessionName string
	// Name identifies this standby instance (subscriber + ack name).
	Name string
	// Region is the standby's locality ("region" or "region/zone"),
	// advertised in the replication hello so the primary classifies the
	// bootstrap snapshot as local or cross-region traffic. Empty means
	// local.
	Region string
	// IdleTimeout, when non-zero and the stream supports read
	// deadlines, bounds how long Run blocks without traffic before
	// failing with ErrReplicationLost.
	IdleTimeout time.Duration
	// Clock drives the idle watchdog (defaults to vclock.Real).
	Clock vclock.Clock

	mu       sync.Mutex
	sess     *dataservice.Session
	applied  uint64
	promoted bool
}

// Session returns the standby's replica session (nil before the first
// bootstrap).
func (st *Standby) Session() *dataservice.Session {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.sess
}

// Applied returns the highest op version the standby has applied.
func (st *Standby) Applied() uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.applied
}

// Promoted reports whether the standby has been promoted.
func (st *Standby) Promoted() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.promoted
}

// Promote lifts the read-only guard and detaches the standby from its
// primary: any replication stream still running returns ErrPromoted.
// The session keeps its name, scene and exact version.
func (st *Standby) Promote() (*dataservice.Session, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.promoted {
		return nil, fmt.Errorf("failover: standby %q already promoted", st.Name)
	}
	if st.sess == nil {
		return nil, fmt.Errorf("failover: standby %q has no replica to promote", st.Name)
	}
	st.promoted = true
	st.sess.SetReadOnly(false)
	return st.sess, nil
}

// Run follows the primary at rw: hello (resuming at the last applied
// version when a replica exists), bootstrap, then the versioned op
// stream, acknowledging each applied version with MsgStandbyAck. It
// returns ErrPromoted after a promotion, ErrReplicationLost when the
// stream dies, and ctx.Err() when cancelled. Safe to call again with a
// fresh stream after a reconnect — the replica is retained and resumed.
func (st *Standby) Run(ctx context.Context, rw io.ReadWriter) error {
	conn := transport.NewConn(rw)
	st.mu.Lock()
	since := st.applied
	if st.sess == nil {
		since = 0
	}
	st.mu.Unlock()
	err := conn.SendJSON(transport.MsgHello, transport.Hello{
		Role: "standby", Name: st.Name, Session: st.SessionName,
		SinceVersion: since, Region: st.Region,
	})
	if err != nil {
		return err
	}
	clock := st.Clock
	if clock == nil {
		clock = vclock.Real{}
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if st.Promoted() {
			return ErrPromoted
		}
		if st.IdleTimeout > 0 {
			// Ignore ErrNoDeadline: plain pipes cannot time out.
			conn.SetReadDeadline(clock.Now().Add(st.IdleTimeout))
		}
		t, payload, err := conn.Receive()
		if err != nil {
			if st.Promoted() {
				return ErrPromoted
			}
			if err == io.EOF {
				return fmt.Errorf("%w: stream closed", ErrReplicationLost)
			}
			return fmt.Errorf("%w: %v", ErrReplicationLost, err)
		}
		if err := st.handle(conn, t, payload); err != nil {
			return err
		}
	}
}

// handle applies one replication message.
func (st *Standby) handle(conn *transport.Conn, t transport.MsgType, payload []byte) error {
	switch t {
	case transport.MsgSceneSnapshot:
		sc, err := marshal.DecodeScene(payload)
		if err != nil {
			return err
		}
		sess, err := st.installSnapshot(sc)
		if err != nil {
			return err
		}
		_ = sess
		return conn.SendJSON(transport.MsgStandbyAck, transport.VersionReport{Version: sc.Version})
	case transport.MsgResumeOK:
		// Our replica is current through st.applied; the gap (if any)
		// follows as MsgSceneOpVer.
		return nil
	case transport.MsgSceneOpVer:
		version, body, err := transport.UnpackVersioned(payload)
		if err != nil {
			return err
		}
		return st.applyOp(conn, version, body)
	case transport.MsgCameraUpdate:
		var cam transport.CameraState
		if err := transport.DecodeJSON(payload, &cam); err != nil {
			return err
		}
		if sess := st.Session(); sess != nil {
			return sess.SetCamera(cam, "")
		}
		return nil
	case transport.MsgError:
		var ei transport.ErrorInfo
		if err := transport.DecodeJSON(payload, &ei); err != nil {
			return err
		}
		return fmt.Errorf("failover: primary refused standby %q: %s", st.Name, ei.Message)
	default:
		// Ignore messages replication does not handle.
		return nil
	}
}

// installSnapshot makes sc the replica's authoritative state.
func (st *Standby) installSnapshot(sc *scene.Scene) (*dataservice.Session, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.sess == nil {
		sess, err := st.Service.CreateSession(st.SessionName)
		if err != nil {
			return nil, fmt.Errorf("failover: standby session: %w", err)
		}
		st.sess = sess
	}
	if !st.promoted {
		st.sess.SetReadOnly(true)
	}
	st.sess.InstallScene(sc)
	st.applied = sc.Version
	return st.sess, nil
}

// applyOp applies one versioned op from the primary, acking on success
// and requesting a resync on a detected gap.
func (st *Standby) applyOp(conn *transport.Conn, version uint64, body []byte) error {
	st.mu.Lock()
	sess, applied, promoted := st.sess, st.applied, st.promoted
	st.mu.Unlock()
	if promoted {
		return ErrPromoted
	}
	if sess == nil || version > applied+1 {
		// Bootstrap missing or gap detected: ask for a fresh snapshot.
		return conn.Send(transport.MsgResyncRequest, nil)
	}
	if version <= applied {
		return nil // duplicate from a resync overlap
	}
	op, err := marshal.DecodeOp(body)
	if err != nil {
		return err
	}
	if err := sess.ApplyReplicated(op, st.Name); err != nil {
		return err
	}
	st.mu.Lock()
	st.applied = version
	st.mu.Unlock()
	return conn.SendJSON(transport.MsgStandbyAck, transport.VersionReport{Version: version})
}
