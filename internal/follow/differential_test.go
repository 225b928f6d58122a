package follow_test

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/dataservice"
	"repro/internal/dataservice/failover"
	"repro/internal/marshal"
	"repro/internal/mathx"
	"repro/internal/netsim"
	"repro/internal/scene"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// The differential test feeds the same version/op sequences through the
// wire follower (a failover.Standby over a simulated link) and the
// in-process follower (a dataservice.Mirror): both must end on the same
// version and the same scene, and the standby's acks must strictly
// increase.

const diffOps = 12

// fixture is a primary that committed diffOps ops after base, plus a
// mirror bootstrapped at base whose own fan-out is muted, so the test
// alone decides what the mirror receives.
type fixture struct {
	primary *dataservice.Session
	base    *scene.Scene
	ops     []dataservice.ReplayOp
	mirror  *dataservice.Mirror
}

func encode(t *testing.T, sc *scene.Scene) []byte {
	b, err := marshal.AppendScene(nil, sc)
	if err != nil {
		t.Error(err)
	}
	return b
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	sess, err := dataservice.New(dataservice.Config{Name: "primary"}).CreateSession("diff")
	if err != nil {
		t.Fatal(err)
	}
	var ids []scene.NodeID
	for i := 0; i < 3; i++ {
		id := sess.AllocID()
		if err := sess.ApplyUpdate(&scene.AddNodeOp{Parent: scene.RootID, ID: id, Name: "n", Transform: mathx.Identity()}, ""); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	m, err := dataservice.MirrorSession(sess, dataservice.New(dataservice.Config{Name: "backup"}))
	if err != nil {
		t.Fatal(err)
	}
	// An empty interest set filters every op out of the mirror's feed.
	if err := sess.SetInterest(sess.SubscriberNames()[0], []scene.NodeID{}); err != nil {
		t.Fatal(err)
	}
	f := &fixture{primary: sess, base: sess.Snapshot(), mirror: m}
	for i := 0; i < diffOps; i++ {
		op := &scene.SetTransformOp{ID: ids[i%3], Transform: mathx.Translate(mathx.V3(float64(i), 1, 0))}
		if err := sess.ApplyUpdate(op, ""); err != nil {
			t.Fatal(err)
		}
		f.ops = append(f.ops, dataservice.ReplayOp{Version: sess.Version(), Op: op})
	}
	return f
}

// runMirror feeds the ops at seq to the mirror and returns its scene.
func (f *fixture) runMirror(t *testing.T, seq []int) *scene.Scene {
	t.Helper()
	for _, i := range seq {
		if err := f.mirror.SendOpVer(f.ops[i].Op, f.ops[i].Version); err != nil {
			t.Fatal(err)
		}
	}
	return f.mirror.Backup().Snapshot()
}

// runWire plays the primary's side of a replication stream to a standby
// over a simulated link with the given fault plan: bootstrap at base,
// then the ops at seq, answering each resync request with a snapshot of
// the primary. It waits for the standby to reach want and returns the
// standby's scene and its acks.
func (f *fixture) runWire(t *testing.T, seq []int, faults *netsim.Faults, want uint64) (*scene.Scene, []uint64) {
	t.Helper()
	link := netsim.Link{BandwidthBps: 1e15, Efficiency: 1, Quality: 1}
	a, b := netsim.SimPipe(vclock.NewVirtual(time.Unix(0, 0)), link, link)
	defer a.Kill()
	if faults != nil {
		a.InjectFaults(faults)
	}
	st := &failover.Standby{
		Service:     dataservice.New(dataservice.Config{Name: "standby-svc"}),
		SessionName: "diff",
		Name:        "standby",
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go st.Run(ctx, b)

	prim := transport.NewConn(a)
	if typ, _, err := prim.Receive(); err != nil || typ != transport.MsgHello {
		t.Fatalf("hello: %s %v", typ, err)
	}
	resync := encode(t, f.primary.Snapshot())
	var mu sync.Mutex
	var acks []uint64
	go func() {
		for {
			typ, payload, err := prim.Receive()
			if err != nil {
				return
			}
			switch typ {
			case transport.MsgStandbyAck:
				var vr transport.VersionReport
				if transport.DecodeJSON(payload, &vr) == nil {
					mu.Lock()
					acks = append(acks, vr.Version)
					mu.Unlock()
				}
			case transport.MsgResyncRequest:
				prim.Send(transport.MsgSceneSnapshot, resync)
			}
		}
	}()
	if err := prim.Send(transport.MsgSceneSnapshot, encode(t, f.base)); err != nil {
		t.Fatal(err)
	}
	for _, i := range seq {
		body, err := marshal.AppendOp(nil, f.ops[i].Op)
		if err != nil {
			t.Fatal(err)
		}
		if err := prim.Send(transport.MsgSceneOpVer, transport.PackVersioned(f.ops[i].Version, body)); err != nil {
			t.Fatal(err)
		}
	}
	lastAck := func() uint64 {
		mu.Lock()
		defer mu.Unlock()
		if len(acks) == 0 {
			return 0
		}
		return acks[len(acks)-1]
	}
	deadline := time.Now().Add(5 * time.Second)
	for st.Applied() != want || lastAck() != want {
		if time.Now().After(deadline) {
			t.Fatalf("standby at v%d (last ack v%d), want v%d", st.Applied(), lastAck(), want)
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	return st.Session().Snapshot(), append([]uint64(nil), acks...)
}

func TestWireAndMirrorFollowIdentically(t *testing.T) {
	inOrder := make([]int, diffOps)
	for i := range inOrder {
		inOrder[i] = i
	}
	without := func(skip int) []int {
		var seq []int
		for _, i := range inOrder {
			if i != skip {
				seq = append(seq, i)
			}
		}
		return seq
	}
	cases := []struct {
		name string
		// wire is what the primary sends; the netsim plan then drops
		// writes from it (write 0 is the bootstrap, write k op k-1).
		wire  []int
		drops []int
		// mirror is what survives the link, fed in process.
		mirror []int
	}{
		{name: "in-order", wire: inOrder, mirror: inOrder},
		{name: "duplicate", wire: []int{0, 1, 1, 2, 0, 3, 4, 5, 5, 6, 7, 8, 9, 10, 11, 11, 4}},
		{name: "gap", wire: without(3)},
		{name: "drop-mid", wire: inOrder, drops: []int{6}, mirror: without(5)},
		{name: "drop-last", wire: inOrder, drops: []int{diffOps}, mirror: without(diffOps - 1)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.mirror == nil {
				tc.mirror = tc.wire
			}
			f := newFixture(t)
			mirrored := f.runMirror(t, tc.mirror)
			var faults *netsim.Faults
			if tc.drops != nil {
				faults = netsim.NewFaults(1).DropWrites(tc.drops...)
			}
			wired, acks := f.runWire(t, tc.wire, faults, mirrored.Version)
			if !bytes.Equal(encode(t, wired), encode(t, mirrored)) {
				t.Errorf("wire and mirror scenes differ at v%d", mirrored.Version)
			}
			for i := 1; i < len(acks); i++ {
				if acks[i] <= acks[i-1] {
					t.Errorf("acks not strictly increasing: %v", acks)
					break
				}
			}
		})
	}
}
