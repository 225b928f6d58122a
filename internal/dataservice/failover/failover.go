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
	"repro/internal/follow"
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
	promoted bool
}

// Session returns the standby's replica session (nil before the first
// bootstrap).
func (st *Standby) Session() *dataservice.Session {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.sess
}

// Applied returns the version the standby's replica holds (0 before
// the first bootstrap).
func (st *Standby) Applied() uint64 {
	if sess := st.Session(); sess != nil {
		return sess.Version()
	}
	return 0
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
// stream through the follower core (internal/follow), acknowledging each
// applied version with MsgStandbyAck. It returns ErrPromoted after a
// promotion, ErrReplicationLost when the stream dies, and ctx.Err() when
// cancelled. Safe to call again with a fresh stream after a reconnect —
// the replica is retained and resumed.
func (st *Standby) Run(ctx context.Context, rw io.ReadWriter) error {
	conn := transport.NewConn(rw)
	err := conn.SendJSON(transport.MsgHello, transport.Hello{
		Role: "standby", Name: st.Name, Session: st.SessionName,
		SinceVersion: st.Applied(), Region: st.Region,
	})
	if err != nil {
		return err
	}
	w := follow.Wire{
		Conn: conn, Replica: (*replica)(st), Bootstrapped: st.Session() != nil,
		IdleTimeout: st.IdleTimeout, Clock: st.Clock,
		Handle: func(t transport.MsgType, payload []byte) (bool, error) {
			if st.Promoted() {
				return true, ErrPromoted
			}
			switch t {
			case transport.MsgCameraUpdate:
				var cam transport.CameraState
				if err := transport.DecodeJSON(payload, &cam); err != nil {
					return true, err
				}
				if sess := st.Session(); sess != nil {
					return true, sess.SetCamera(cam, "")
				}
				return true, nil
			case transport.MsgError:
				var ei transport.ErrorInfo
				if err := transport.DecodeJSON(payload, &ei); err != nil {
					return true, err
				}
				return true, fmt.Errorf("failover: primary refused standby %q: %s", st.Name, ei.Message)
			}
			return false, nil
		},
		Applied: func(version uint64) error {
			return conn.SendJSON(transport.MsgStandbyAck, transport.VersionReport{Version: version})
		},
		Lost: func(err error) error {
			if st.Promoted() {
				return ErrPromoted
			}
			if err == io.EOF {
				return fmt.Errorf("%w: stream closed", ErrReplicationLost)
			}
			return fmt.Errorf("%w: %v", ErrReplicationLost, err)
		},
	}
	if err := w.Run(ctx); err != nil {
		return err
	}
	return fmt.Errorf("%w: primary said bye", ErrReplicationLost)
}

// replica is the standby as a follower-core target: its session,
// created read-only by the first snapshot.
type replica Standby

func (r *replica) Version() uint64 { return (*Standby)(r).Applied() }

func (r *replica) Install(sc *scene.Scene) error {
	st := (*Standby)(r)
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.sess == nil {
		sess, err := st.Service.CreateSession(st.SessionName)
		if err != nil {
			return fmt.Errorf("failover: standby session: %w", err)
		}
		st.sess = sess
	}
	st.sess.SetReadOnly(true)
	return dataservice.Replica{Session: st.sess}.Install(sc)
}

func (r *replica) ApplyOp(op scene.Op) error {
	return dataservice.Replica{Session: (*Standby)(r).Session()}.ApplyOp(op)
}
