package dataservice

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/geom/genmodel"
	"repro/internal/mathx"
	"repro/internal/renderservice"
	"repro/internal/scene"
	"repro/internal/transport"
)

// These tests pin the delivery contract every follower relies on: a
// subscriber's stream starts with its bootstrap, and its ops arrive in
// version order however many goroutines commit at once.

// commitConcurrently runs writers goroutines that each commit n
// transforms on their own node of ids (ids[w % len(ids)]), and waits
// for all of them.
func commitConcurrently(t *testing.T, sess *Session, ids []scene.NodeID, writers, n int) {
	t.Helper()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := ids[w%len(ids)]
			for i := 0; i < n; i++ {
				op := &scene.SetTransformOp{ID: id, Transform: mathx.Translate(mathx.V3(float64(w), float64(i), 0))}
				if err := sess.ApplyUpdate(op, "writer"); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestSubscriptionDuringCommitsBootstrapsFirst: a socket subscription
// that joins while a writer commits sees its snapshot before any op.
// Encoding a large scene's snapshot is slow — the window in which a
// commit's fan-out would reach a subscriber whose bootstrap has not
// gone out yet.
func TestSubscriptionDuringCommitsBootstrapsFirst(t *testing.T) {
	svc := New(Config{Name: "data"})
	sess, err := svc.CreateSessionFromMesh("s", "galleon", genmodel.Galleon(20000))
	if err != nil {
		t.Fatal(err)
	}
	id := sess.Snapshot().Root.Children[0].ID
	stop := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// Fan-out errors are expected: subscribers hang up below.
			sess.ApplyUpdate(&scene.SetTransformOp{ID: id, Transform: mathx.Translate(mathx.V3(float64(i), 0, 0))}, "writer")
		}
	}()
	defer func() { close(stop); <-writerDone }()

	for i := 0; i < 20; i++ {
		dsEnd, subEnd := net.Pipe()
		served := make(chan struct{})
		go func() { svc.ServeConn(dsEnd); close(served) }()
		conn := transport.NewConn(subEnd)
		if err := conn.SendJSON(transport.MsgHello, transport.Hello{
			Role: "render-service", Name: fmt.Sprintf("sub-%d", i), Session: "s",
		}); err != nil {
			t.Fatal(err)
		}
		typ, _, err := conn.Receive()
		subEnd.Close()
		<-served
		dsEnd.Close()
		if err != nil {
			t.Fatal(err)
		}
		if typ != transport.MsgSceneSnapshot && typ != transport.MsgResumeOK {
			t.Errorf("subscription %d: first message %s, want its bootstrap", i, typ)
		}
	}
}

// TestConcurrentCommitsNeedNoResync: ops committed by concurrent
// writers reach one wire follower in version order, so the replica
// catches up with the primary without a single resync snapshot.
func TestConcurrentCommitsNeedNoResync(t *testing.T) {
	svc := New(Config{Name: "data"})
	sess, err := svc.CreateSession("s")
	if err != nil {
		t.Fatal(err)
	}
	var ids []scene.NodeID
	for i := 0; i < 8; i++ {
		id := sess.AllocID()
		if err := sess.ApplyUpdate(&scene.AddNodeOp{Parent: scene.RootID, ID: id, Transform: mathx.Identity()}, ""); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	rs := renderservice.New(renderservice.Config{Name: "rs"})
	// Loopback TCP buffers both directions, so a resync request and the
	// fan-out can be in flight at once without either side blocking.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		if c, err := ln.Accept(); err == nil {
			defer c.Close()
			svc.ServeConn(c)
		}
	}()
	rsEnd, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer rsEnd.Close()
	ready := make(chan *renderservice.Session, 1)
	go rs.SubscribeToData(rsEnd, "s", func(s *renderservice.Session) { ready <- s })
	replica := <-ready

	commitConcurrently(t, sess, ids, 8, 1000)
	want := sess.Version()
	deadline := time.Now().Add(10 * time.Second)
	for replica.Version() != want {
		if time.Now().After(deadline) {
			t.Fatalf("replica stuck at v%d, primary at v%d", replica.Version(), want)
		}
		time.Sleep(time.Millisecond)
	}
	if snapshots, _ := sess.BootstrapStats(); snapshots != 1 {
		t.Errorf("served %d resync snapshots, want 0 (no op was lost)", snapshots-1)
	}
}

// orderSub records the ops it is handed. Its deliveries yield first,
// as a socket write would, so a fan-out that is not sequenced lets a
// later commit overtake an earlier one.
type orderSub struct {
	mu  sync.Mutex
	ops []scene.Op
}

func (o *orderSub) SendOp(op scene.Op) error {
	runtime.Gosched()
	o.mu.Lock()
	defer o.mu.Unlock()
	o.ops = append(o.ops, op)
	return nil
}

func (o *orderSub) SendCamera(transport.CameraState) error { return nil }

// versionSub is an orderSub that takes the versioned stream.
type versionSub struct {
	orderSub
	versions []uint64
}

func (v *versionSub) SendOpVer(op scene.Op, version uint64) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.ops = append(v.ops, op)
	v.versions = append(v.versions, version)
	return nil
}

// TestInterestFilteredOpsArriveInCommitOrder: an interest-filtered
// subscriber's stream carries no versions, so it cannot detect
// reordering — the session must deliver in commit order, or the replica
// silently ends on a stale transform.
func TestInterestFilteredOpsArriveInCommitOrder(t *testing.T) {
	svc := New(Config{Name: "data"})
	sess, err := svc.CreateSession("s")
	if err != nil {
		t.Fatal(err)
	}
	id := sess.AllocID()
	if err := sess.ApplyUpdate(&scene.AddNodeOp{Parent: scene.RootID, ID: id, Transform: mathx.Identity()}, ""); err != nil {
		t.Fatal(err)
	}
	filtered, all := &orderSub{}, &versionSub{}
	if _, err := sess.Subscribe("filtered", filtered); err != nil {
		t.Fatal(err)
	}
	if err := sess.SetInterest("filtered", []scene.NodeID{id}); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Subscribe("all", all); err != nil {
		t.Fatal(err)
	}

	commitConcurrently(t, sess, []scene.NodeID{id}, 8, 250)
	// The versioned stream says which op each version committed.
	byVersion := map[uint64]scene.Op{}
	for i, v := range all.versions {
		byVersion[v] = all.ops[i]
	}
	if len(filtered.ops) != len(byVersion) {
		t.Fatalf("filtered subscriber got %d ops, want %d", len(filtered.ops), len(byVersion))
	}
	inversions := 0
	for i, op := range filtered.ops {
		if byVersion[uint64(i)+2] != op {
			inversions++
		}
	}
	if inversions > 0 {
		t.Errorf("%d of %d filtered ops arrived out of commit order", inversions, len(filtered.ops))
	}
	if got, want := sess.Snapshot().Node(id).Transform, filtered.ops[len(filtered.ops)-1].(*scene.SetTransformOp).Transform; got != want {
		t.Error("filtered replica would end on a stale transform")
	}
}
