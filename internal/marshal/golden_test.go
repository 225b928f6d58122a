package marshal_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/dataservice/wal"
	"repro/internal/geom"
	"repro/internal/geom/genmodel"
	"repro/internal/marshal"
	"repro/internal/mathx"
	"repro/internal/raster"
	"repro/internal/scene"
)

// The files under testdata/ freeze the wire format: they were written by
// the bufio stream encoder the slice codec replaced, and every encoder
// and decoder since must reproduce and read them byte for byte. Rewrite
// them (go test ./internal/marshal -run Golden -update) only for a
// deliberate, versioned format change.
var update = flag.Bool("update", false, "rewrite the wire-format goldens from the current encoder")

// goldenScene holds one node of every payload kind under a group.
func goldenScene(t testing.TB) *scene.Scene {
	t.Helper()
	s := scene.New()
	add := func(parent scene.NodeID, name string, tr mathx.Mat4, p scene.Payload) scene.NodeID {
		id := s.AllocID()
		if err := s.ApplyOp(&scene.AddNodeOp{Parent: parent, ID: id, Name: name, Transform: tr, Payload: p}); err != nil {
			t.Fatal(err)
		}
		return id
	}
	mesh := genmodel.Sphere(mathx.V3(0.5, -0.25, 1), 1, 5, 3)
	mesh.SetUniformColor(mathx.V3(0.6, 0.4, 0.2))
	g := add(scene.RootID, "group", mathx.Translate(mathx.V3(1, 2, 3)), nil)
	add(g, "mesh", mathx.RotateY(0.3), &scene.MeshPayload{Mesh: mesh})
	add(g, "points", mathx.Identity(), &scene.PointsPayload{Cloud: &geom.PointCloud{
		Points: []mathx.Vec3{mathx.V3(1, 2, 3), mathx.V3(-4, 5, 6.5)},
		Colors: []mathx.Vec3{mathx.V3(1, 0, 0), mathx.V3(0, 1, 0.25)},
	}})
	vg := geom.NewVoxelGrid(2, 3, 2, mathx.V3(-1, -1, -1), 0.5)
	vg.Set(1, 1, 1, 2.5)
	vg.Set(0, 2, 0, -0.75)
	add(scene.RootID, "voxels", mathx.Identity(), &scene.VoxelsPayload{Grid: vg, Iso: 0.5})
	add(scene.RootID, "avatar", mathx.Translate(mathx.V3(0, 0, 9)),
		&scene.AvatarPayload{User: "desktop-ρ", Color: mathx.V3(1, 1, 0)})
	return s
}

// goldenOps is one op of each of the five kinds, in an order that
// applies cleanly to goldenScene (node IDs 2..6 exist there).
func goldenOps() []struct {
	file string
	op   scene.Op
} {
	tri := &geom.Mesh{
		Positions: []mathx.Vec3{mathx.V3(0, 0, 0), mathx.V3(1, 0, 0), mathx.V3(0, 1, 0)},
		Indices:   []uint32{0, 1, 2},
	}
	return []struct {
		file string
		op   scene.Op
	}{
		{"op-add.bin", &scene.AddNodeOp{Parent: 2, ID: 7, Name: "tri", Transform: mathx.RotateX(1),
			Payload: &scene.MeshPayload{Mesh: tri}}},
		{"op-remove.bin", &scene.RemoveNodeOp{ID: 4}},
		{"op-set-transform.bin", &scene.SetTransformOp{ID: 6, Transform: mathx.Translate(mathx.V3(1, -2, 3))}},
		{"op-set-name.bin", &scene.SetNameOp{ID: 6, Name: "renamed"}},
		{"op-set-payload.bin", &scene.SetPayloadOp{ID: 6,
			Payload: &scene.AvatarPayload{User: "pda", Color: mathx.V3(0, 0.5, 1)}}},
	}
}

// goldenFrame is a small framebuffer with a few covered pixels.
func goldenFrame() *raster.Framebuffer {
	fb := raster.NewFramebuffer(5, 4)
	fb.Plot(1, 1, 0.25, 10, 20, 30)
	fb.Plot(3, 2, -0.5, 200, 100, 50)
	fb.Plot(4, 3, 0.9866358, 121, 121, 118)
	return fb
}

// goldenWAL journals goldenOps onto goldenScene.
func goldenWAL(t testing.TB) []byte {
	t.Helper()
	base := goldenScene(t)
	store := wal.NewMemStore()
	at := time.Unix(1100000000, 5)
	l, err := wal.Create(store, base, base.Version, at)
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range goldenOps() {
		if err := l.Append(g.op, base.Version+uint64(i)+1, at.Add(time.Duration(i)*time.Millisecond), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return store.Bytes()
}

// checkGolden compares got with testdata/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name string, got []byte) []byte {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return got
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: encoder output (%d bytes) differs from the frozen wire format (%d bytes)", name, len(got), len(want))
	}
	return want
}

func TestGoldenScene(t *testing.T) {
	var buf bytes.Buffer
	if err := marshal.WriteScene(&buf, goldenScene(t)); err != nil {
		t.Fatal(err)
	}
	want := checkGolden(t, "scene.bin", buf.Bytes())
	back, err := marshal.ReadScene(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := marshal.WriteScene(&again, back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), want) {
		t.Fatal("decoded golden scene re-encodes differently")
	}
}

func TestGoldenOps(t *testing.T) {
	for _, g := range goldenOps() {
		var buf bytes.Buffer
		if err := marshal.WriteOp(&buf, g.op); err != nil {
			t.Fatal(err)
		}
		want := checkGolden(t, g.file, buf.Bytes())
		back, err := marshal.ReadOp(bytes.NewReader(want))
		if err != nil {
			t.Fatalf("%s: %v", g.file, err)
		}
		var again bytes.Buffer
		if err := marshal.WriteOp(&again, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), want) {
			t.Fatalf("%s: decoded golden op re-encodes differently", g.file)
		}
	}
}

func TestGoldenFrames(t *testing.T) {
	fb := goldenFrame()
	for _, c := range []struct {
		file  string
		depth bool
	}{{"frame-depth.bin", true}, {"frame-color.bin", false}} {
		var buf bytes.Buffer
		if err := marshal.WriteFrame(&buf, fb, c.depth); err != nil {
			t.Fatal(err)
		}
		want := checkGolden(t, c.file, buf.Bytes())
		back, err := marshal.ReadFrame(bytes.NewReader(want))
		if err != nil {
			t.Fatalf("%s: %v", c.file, err)
		}
		if !bytes.Equal(back.Color, fb.Color) {
			t.Fatalf("%s: colour plane differs", c.file)
		}
		var again bytes.Buffer
		if err := marshal.WriteFrame(&again, back, c.depth); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), want) {
			t.Fatalf("%s: decoded golden frame re-encodes differently", c.file)
		}
	}
}

func TestGoldenWAL(t *testing.T) {
	want := checkGolden(t, "segment.wal", goldenWAL(t))
	path := filepath.Join(t.TempDir(), "segment.wal")
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	rec, err := wal.Recover(wal.NewOSStore(path))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Torn != nil || len(rec.Ops) != len(goldenOps()) {
		t.Fatalf("recovered %d ops (torn %v), want %d", len(rec.Ops), rec.Torn, len(goldenOps()))
	}
	got, err := rec.Scene()
	if err != nil {
		t.Fatal(err)
	}
	live := goldenScene(t)
	for _, g := range goldenOps() {
		if err := live.ApplyOp(g.op); err != nil {
			t.Fatal(err)
		}
	}
	var a, b bytes.Buffer
	if err := marshal.WriteScene(&a, live); err != nil {
		t.Fatal(err)
	}
	if err := marshal.WriteScene(&b, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("replayed golden segment differs from the live scene")
	}
}
