package dataservice

import (
	"fmt"
	"testing"

	"repro/internal/compositor"
	"repro/internal/device"
	"repro/internal/geom/genmodel"
	"repro/internal/mathx"
	"repro/internal/raster"
	"repro/internal/renderservice"
	"repro/internal/scene"
	"repro/internal/transport"
)

// TestDistributedDepthTieMatchesWholeRender pins a pose where fragments
// from two subsets tie exactly on float32 depth. The paper-size Elle is
// split spatially into 8 nodes and planned onto two render services as
// {1,3,4,6} and {0,2,5,7}; at this camera pixel (170,119) holds a
// fragment of each subset at depth 0.9866358. Under a first-writer-wins
// depth test the whole render kept one fragment and the composite the
// other; with the shared tie rule the composite matches the whole render
// byte for byte in either part order.
func TestDistributedDepthTieMatchesWholeRender(t *testing.T) {
	full := genmodel.Elle(genmodel.PaperElleTriangles)
	sess, err := New(Config{Name: "data"}).CreateSession("elle")
	if err != nil {
		t.Fatal(err)
	}
	var ids []scene.NodeID
	for i, piece := range full.SplitSpatially(8) {
		id, err := sess.AddMesh(fmt.Sprintf("elle-part-%d", i), piece, mathx.Identity())
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	cam := renderservice.CameraFromState(transport.CameraState{
		Eye:    [3]float64{-3.184207021091785, 6.873312197320891, 11.382922064362173},
		Target: [3]float64{0, 3.225509320851293, 0.00046615454290410696},
		Up:     [3]float64{0, 1, 0},
		FovY:   0.7853981633974483,
		Near:   0.1236955709464696,
		Far:    30.19090773517256,
	})
	const size = 400
	rs := renderservice.New(renderservice.Config{Name: "render", Device: device.XeonDesktop, Workers: 2})
	render := func(sc *scene.Scene) *raster.Framebuffer {
		t.Helper()
		fb, _, err := rs.RenderSceneOnce(sc, cam, size, size)
		if err != nil {
			t.Fatal(err)
		}
		return fb
	}
	whole := render(sess.Snapshot())
	var parts []*raster.Framebuffer
	for _, group := range [][]scene.NodeID{
		{ids[1], ids[3], ids[4], ids[6]},
		{ids[0], ids[2], ids[5], ids[7]},
	} {
		var subset *scene.Scene
		sess.Scene(func(sc *scene.Scene) { subset, err = sc.ExtractSubset(group) })
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, render(subset))
	}

	// The pose must still pin a tie, or this test has stopped testing it.
	const tie = 119*size + 170
	if parts[0].Depth[tie] != parts[1].Depth[tie] || parts[0].Depth[tie] != whole.Depth[tie] {
		t.Fatalf("pixel (170,119) no longer ties: depths %v, %v, whole %v",
			parts[0].Depth[tie], parts[1].Depth[tie], whole.Depth[tie])
	}
	for _, order := range [][]*raster.Framebuffer{{parts[0], parts[1]}, {parts[1], parts[0]}} {
		fb, err := compositor.CompositeAll(size, size, order...)
		if err != nil {
			t.Fatal(err)
		}
		for i := range whole.Depth {
			if whole.Color[3*i] != fb.Color[3*i] || whole.Color[3*i+1] != fb.Color[3*i+1] || whole.Color[3*i+2] != fb.Color[3*i+2] {
				t.Fatalf("pixel (%d,%d): composite %v, whole render %v at depth %v",
					i%size, i/size, fb.Color[3*i:3*i+3], whole.Color[3*i:3*i+3], whole.Depth[i])
			}
		}
	}
}
