// Package follow is the one op-stream follower. A data service streams
// each subscriber its bootstrap (a snapshot, or a resume acknowledgement
// for a recent replica) and then its committed ops in version order.
// Every copy of a session applies that stream under the rule owned
// here: an op at or below the replica's version drops, the next version
// applies, and one further ahead is a gap, answered by one resync
// request; versioned ops are then ignored until the snapshot lands.
//
// Wire runs the rule for the network followers (render replicas and hot
// standbys); the in-process mirror feeds a Follower directly.
package follow

import (
	"context"
	"time"

	"repro/internal/marshal"
	"repro/internal/scene"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// Replica is the copy a follower keeps in step with its primary.
type Replica interface {
	Version() uint64
	// Install replaces the copy with a snapshot, taking ownership of it.
	Install(sc *scene.Scene) error
	ApplyOp(op scene.Op) error
}

// Follower applies a versioned op stream to a Replica.
type Follower struct {
	replica                 Replica
	resync                  func() error
	bootstrapped, resyncing bool
}

// New returns a follower for r; until r is bootstrapped, every versioned
// op is a gap. resync asks the primary for a snapshot, which comes back
// through Install (an in-process resync may call Install itself).
func New(r Replica, bootstrapped bool, resync func() error) *Follower {
	return &Follower{replica: r, resync: resync, bootstrapped: bootstrapped}
}

// Op offers the op that produced version v and reports whether it
// applied.
func (f *Follower) Op(v uint64, op scene.Op) (applied bool, err error) {
	if f.resyncing {
		return false, nil
	}
	if f.bootstrapped {
		if cur := f.replica.Version(); v <= cur {
			return false, nil
		} else if v == cur+1 {
			return true, f.replica.ApplyOp(op)
		}
	}
	return false, f.requestResync()
}

// requestResync asks for a fresh snapshot and ignores versioned ops
// until it lands.
func (f *Follower) requestResync() error {
	f.resyncing = true
	return f.resync()
}

// Install installs a bootstrap or resync snapshot.
func (f *Follower) Install(sc *scene.Scene) error {
	if err := f.replica.Install(sc); err != nil {
		return err
	}
	f.bootstrapped, f.resyncing = true, false
	return nil
}

// Wire follows a data-service stream on Conn until the primary says Bye
// (Run returns nil), ctx ends, a receive fails, or a step errors. Handle
// and Lost are required.
type Wire struct {
	Conn         *transport.Conn
	Replica      Replica
	Bootstrapped bool // see New
	// IdleTimeout, when positive, bounds each receive on Clock (default
	// vclock.Real); streams without read deadlines ignore it.
	IdleTimeout time.Duration
	Clock       vclock.Clock
	// Handle sees each message first, for the follower's own extras,
	// and reports whether it consumed it.
	Handle func(t transport.MsgType, payload []byte) (handled bool, err error)
	// Applied, if set, runs when a snapshot or op brings the replica to
	// a new version.
	Applied func(version uint64) error
	// Lost maps a receive failure to Run's result.
	Lost func(err error) error
}

// Run follows the stream.
func (w *Wire) Run(ctx context.Context) error {
	f := New(w.Replica, w.Bootstrapped, func() error {
		return w.Conn.Send(transport.MsgResyncRequest, nil)
	})
	clock := w.Clock
	if clock == nil {
		clock = vclock.Real{}
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if w.IdleTimeout > 0 {
			// Ignore ErrNoDeadline: plain pipes cannot time out.
			w.Conn.SetReadDeadline(clock.Now().Add(w.IdleTimeout))
		}
		t, payload, err := w.Conn.Receive()
		if err != nil {
			return w.Lost(err)
		}
		if t == transport.MsgBye {
			return nil
		}
		handled, err := w.Handle(t, payload)
		if err != nil {
			return err
		}
		if handled {
			continue
		}
		if err := w.step(f, t, payload); err != nil {
			return err
		}
	}
}

// step applies one stream message through the core.
func (w *Wire) step(f *Follower, t transport.MsgType, payload []byte) error {
	switch t {
	case transport.MsgSceneSnapshot:
		sc, err := marshal.DecodeScene(payload)
		if err != nil {
			return err
		}
		v := sc.Version
		if err := f.Install(sc); err != nil {
			return err
		}
		return w.applied(v)
	case transport.MsgResumeOK:
		f.bootstrapped = true // the retained replica; the gap follows
	case transport.MsgSceneOpVer:
		v, body, err := transport.UnpackVersioned(payload)
		if err != nil {
			return err
		}
		op, err := marshal.DecodeOp(body)
		if err != nil {
			return err
		}
		if applied, err := f.Op(v, op); err != nil || !applied {
			return err
		}
		return w.applied(v)
	case transport.MsgSceneOp:
		// An interest-filtered stream carries no versions to check.
		op, err := marshal.DecodeOp(payload)
		if err != nil {
			return err
		}
		return w.Replica.ApplyOp(op)
	case transport.MsgVersionReport:
		// A probe reply: a replica behind it lost trailing ops. Ask
		// again even mid-resync — that snapshot may have been lost too.
		var vr transport.VersionReport
		if err := transport.DecodeJSON(payload, &vr); err != nil {
			return err
		}
		if vr.Version > w.Replica.Version() {
			return f.requestResync()
		}
	}
	return nil
}

func (w *Wire) applied(v uint64) error {
	if w.Applied == nil {
		return nil
	}
	return w.Applied(v)
}
