package follow

import (
	"testing"

	"repro/internal/scene"
)

// countingReplica is a Replica that only counts: each op advances it by
// one version.
type countingReplica struct{ version uint64 }

func (r *countingReplica) Version() uint64 { return r.version }

func (r *countingReplica) Install(sc *scene.Scene) error {
	r.version = sc.Version
	return nil
}

func (r *countingReplica) ApplyOp(scene.Op) error {
	r.version++
	return nil
}

// TestFollowerVersionRule walks one stream through the rule: duplicates
// drop, the next version applies, a gap sends exactly one resync and
// versioned ops are ignored until the snapshot lands.
func TestFollowerVersionRule(t *testing.T) {
	r := &countingReplica{}
	resyncs := 0
	f := New(r, false, func() error { resyncs++; return nil })
	op := &scene.SetNameOp{ID: scene.RootID, Name: "x"}
	offer := func(v uint64, wantApplied bool) {
		t.Helper()
		applied, err := f.Op(v, op)
		if err != nil || applied != wantApplied {
			t.Fatalf("op v%d: applied %v, %v; want applied %v", v, applied, err, wantApplied)
		}
	}

	offer(1, false) // no bootstrap yet: a gap
	offer(2, false) // resync outstanding: ignored
	if err := f.Install(&scene.Scene{Version: 5}); err != nil {
		t.Fatal(err)
	}
	offer(5, false) // covered by the snapshot
	offer(6, true)
	offer(6, false) // duplicate
	offer(7, true)
	offer(9, false) // gap
	offer(10, false)
	offer(11, false)
	if resyncs != 2 {
		t.Fatalf("%d resync requests, want one per gap (2)", resyncs)
	}
	if err := f.Install(&scene.Scene{Version: 11}); err != nil {
		t.Fatal(err)
	}
	offer(12, true)
	if r.version != 12 {
		t.Errorf("replica at v%d, want v12", r.version)
	}
}
