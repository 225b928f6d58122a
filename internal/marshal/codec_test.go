package marshal

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/geom/genmodel"
	"repro/internal/mathx"
	"repro/internal/raster"
	"repro/internal/scene"
)

// meshScene is n sphere mesh nodes under the root.
func meshScene(t testing.TB, n int) *scene.Scene {
	t.Helper()
	s := scene.New()
	for i := 0; i < n; i++ {
		m := genmodel.Sphere(mathx.V3(float64(i), 0, 0), 1, 8, 6)
		m.SetUniformColor(mathx.V3(0.5, 0.5, 0.5))
		op := &scene.AddNodeOp{Parent: scene.RootID, ID: s.AllocID(), Name: fmt.Sprintf("part-%d", i),
			Transform: mathx.Identity(), Payload: &scene.MeshPayload{Mesh: m}}
		if err := s.ApplyOp(op); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// testFrame is a w×h framebuffer with some covered pixels.
func testFrame(w, h int) *raster.Framebuffer {
	fb := raster.NewFramebuffer(w, h)
	for i := 0; i < w*h; i += 7 {
		fb.Plot(i%w, i/w, float32(i)/float32(w*h), uint8(i), uint8(i>>8), 9)
	}
	return fb
}

// TestSizesExact: the presizing functions agree with the encoders, so
// each message grows its buffer once.
func TestSizesExact(t *testing.T) {
	s := richScene(t)
	b, err := AppendScene(nil, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != SceneSize(s) {
		t.Errorf("scene: %d bytes, SceneSize %d", len(b), SceneSize(s))
	}
	fb := testFrame(9, 5)
	for _, depth := range []bool{true, false} {
		if b := AppendFrame(nil, fb, depth); len(b) != FrameSize(fb, depth) {
			t.Errorf("frame (depth %v): %d bytes, FrameSize %d", depth, len(b), FrameSize(fb, depth))
		}
	}
	s.Walk(func(n *scene.Node, _ mathx.Mat4) bool {
		for _, op := range []scene.Op{
			&scene.AddNodeOp{Parent: 1, ID: 99, Name: n.Name, Transform: n.Transform, Payload: n.Payload},
			&scene.SetPayloadOp{ID: n.ID, Payload: n.Payload},
			&scene.SetNameOp{ID: n.ID, Name: n.Name},
			&scene.SetTransformOp{ID: n.ID, Transform: n.Transform},
			&scene.RemoveNodeOp{ID: n.ID},
		} {
			b, err := AppendOp(nil, op)
			if err != nil {
				t.Fatal(err)
			}
			if len(b) != opSize(op) {
				t.Errorf("%T: %d bytes, opSize %d", op, len(b), opSize(op))
			}
		}
		return true
	})
}

// TestAllocBudgets pins the codec's allocation counts: one buffer per
// encoded frame; the framebuffer and its two planes per decoded frame;
// per decoded mesh node the node-payload-mesh block, the shared vec3
// array, the indices and the name. The scene constant covers the
// scene's root, its two index maps and their growth.
func TestAllocBudgets(t *testing.T) {
	fb := testFrame(64, 48)
	frame := AppendFrame(nil, fb, true)
	if a := testing.AllocsPerRun(20, func() { AppendFrame(nil, fb, true) }); a > 2 {
		t.Errorf("frame encode: %v allocs, budget 2", a)
	}
	if a := testing.AllocsPerRun(20, func() {
		if _, err := DecodeFrame(frame); err != nil {
			t.Fatal(err)
		}
	}); a > 4 {
		t.Errorf("frame decode: %v allocs, budget 4", a)
	}
	const meshNodes, sceneConst = 8, 16
	data, err := AppendScene(nil, meshScene(t, meshNodes))
	if err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(20, func() {
		if _, err := DecodeScene(data); err != nil {
			t.Fatal(err)
		}
	}); a > 4*meshNodes+sceneConst {
		t.Errorf("scene decode (%d mesh nodes): %v allocs, budget %d", meshNodes, a, 4*meshNodes+sceneConst)
	}
}

// bytesAllocated is the average heap allocation of f over runs calls.
func bytesAllocated(runs int, f func()) uint64 {
	f() // warm up lazily initialized state
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestShortPayloadHugeClaim: a message whose length fields claim far
// more than it carries fails without allocating for the claim. The
// scene case is a 157-byte scene whose root mesh claims 11 M vertices —
// 264 MB had the decoder trusted the count.
func TestShortPayloadHugeClaim(t *testing.T) {
	u32 := func(b []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(b, v) }
	u64 := func(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }
	nodeHead := func(b []byte, kind scene.Kind) []byte {
		b = u64(b, uint64(scene.RootID))
		b = u32(b, 0) // name
		b = append(b, make([]byte, mat4Size)...)
		return append(b, uint8(kind))
	}
	sceneHead := func(kind scene.Kind) []byte {
		return nodeHead(u64(u32(nil, sceneMagic), 7), kind)
	}
	meshClaim := u32(sceneHead(scene.KindMesh), 11_000_000)
	if len(meshClaim) != 157 {
		t.Fatalf("mesh claim is %d bytes, want 157", len(meshClaim))
	}
	voxelClaim := u32(append(u32(u32(u32(sceneHead(scene.KindVoxels), 1024), 1024), 64), make([]byte, 40)...), 1<<26)
	cases := []struct {
		name   string
		data   []byte
		decode func([]byte) error
	}{
		{"scene vertices", meshClaim, func(b []byte) error { _, err := DecodeScene(b); return err }},
		{"scene voxels", voxelClaim, func(b []byte) error { _, err := DecodeScene(b); return err }},
		{"scene name", u32(u64(u64(u32(nil, sceneMagic), 7), uint64(scene.RootID)), maxStringLen),
			func(b []byte) error { _, err := DecodeScene(b); return err }},
		{"scene children", u32(nodeHead(u64(u32(nil, sceneMagic), 7), scene.KindGroup), maxChildren),
			func(b []byte) error { _, err := DecodeScene(b); return err }},
		{"frame color", u32(append(u32(u32(nil, 1<<13), 1<<13), 1), 3<<26),
			func(b []byte) error { _, err := DecodeFrame(b); return err }},
		{"frame depth", u32(append(u32(append(u32(u32(nil, 2), 1), 1), 6), make([]byte, 6)...), 1<<26),
			func(b []byte) error { _, err := DecodeFrame(b); return err }},
		{"op name", u32(u64([]byte{uint8(scene.OpSetName)}, 5), maxStringLen),
			func(b []byte) error { _, err := DecodeOp(b); return err }},
	}
	for _, c := range cases {
		if err := c.decode(c.data); err == nil {
			t.Errorf("%s: %d-byte payload with a huge claim decoded", c.name, len(c.data))
			continue
		}
		if n := bytesAllocated(10, func() { _ = c.decode(c.data) }); n >= 64<<10 {
			t.Errorf("%s: %d-byte payload allocated %d bytes before failing", c.name, len(c.data), n)
		}
	}
}

// TestTrailingBytesRejected: a decoded message must be the whole input,
// so that a successful decode re-encodes to exactly its bytes.
func TestTrailingBytesRejected(t *testing.T) {
	for _, name := range []string{"scene.bin", "op-set-name.bin", "frame-depth.bin"} {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		data = append(data, 0)
		if _, err := DecodeScene(data); err == nil {
			t.Errorf("%s plus a byte decoded as a scene", name)
		}
		if _, err := DecodeOp(data); err == nil {
			t.Errorf("%s plus a byte decoded as an op", name)
		}
		if _, err := DecodeFrame(data); err == nil {
			t.Errorf("%s plus a byte decoded as a frame", name)
		}
	}
}
