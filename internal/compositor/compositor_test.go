package compositor

import (
	"image"
	"testing"

	"repro/internal/geom/genmodel"
	"repro/internal/mathx"
	"repro/internal/raster"
)

func TestDepthCompositeNearerWins(t *testing.T) {
	a := raster.NewFramebuffer(4, 4)
	b := raster.NewFramebuffer(4, 4)
	a.Plot(1, 1, 0.5, 10, 0, 0)
	b.Plot(1, 1, 0.2, 0, 20, 0) // nearer
	b.Plot(2, 2, 0.9, 0, 0, 30) // only in b

	if err := DepthComposite(a, b); err != nil {
		t.Fatal(err)
	}
	if _, g, _ := a.At(1, 1); g != 20 {
		t.Errorf("nearer pixel lost: g=%d", g)
	}
	if _, _, bl := a.At(2, 2); bl != 30 {
		t.Errorf("b-only pixel lost: b=%d", bl)
	}
	if a.DepthAt(1, 1) != 0.2 {
		t.Errorf("depth not updated: %v", a.DepthAt(1, 1))
	}
}

func TestDepthCompositeSizeMismatch(t *testing.T) {
	a := raster.NewFramebuffer(4, 4)
	b := raster.NewFramebuffer(4, 5)
	if err := DepthComposite(a, b); err == nil {
		t.Error("size mismatch accepted")
	}
}

func TestDepthCompositeOrderIndependent(t *testing.T) {
	// Dataset distribution: render two halves of a model on "different
	// services" and composite in both orders — results must be identical.
	model := genmodel.Elle(6000)
	cam := raster.DefaultCamera().FitToBounds(model.Bounds(), mathx.V3(0.3, 0.2, 1))
	halves := model.SplitSpatially(2)
	if len(halves) != 2 {
		t.Fatalf("split gave %d pieces", len(halves))
	}
	render := func(m int) *raster.Framebuffer {
		fb := raster.NewFramebuffer(96, 96)
		raster.New(fb).RenderMesh(halves[m], mathx.Identity(), cam)
		return fb
	}
	fb0, fb1 := render(0), render(1)

	ab, err := CompositeAll(96, 96, fb0, fb1)
	if err != nil {
		t.Fatal(err)
	}
	ba, err := CompositeAll(96, 96, fb1, fb0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ab.Color {
		if ab.Color[i] != ba.Color[i] {
			t.Fatal("composite depends on order")
		}
	}

	// And it should match rendering the whole model at once.
	whole := raster.NewFramebuffer(96, 96)
	raster.New(whole).RenderMesh(model, mathx.Identity(), cam)
	diff := 0
	for i := range whole.Color {
		if whole.Color[i] != ab.Color[i] {
			diff++
		}
	}
	// Seam pixels may differ by a rounding epsilon where the split cut
	// shared triangles' shading; allow a tiny fraction.
	if frac := float64(diff) / float64(len(whole.Color)); frac > 0.01 {
		t.Errorf("composited image differs from whole render on %.2f%% of bytes", frac*100)
	}
}

func TestSplitTilesCoverExactly(t *testing.T) {
	rects := SplitTiles(120, 80, 3, 2)
	if len(rects) != 6 {
		t.Fatalf("want 6 tiles, got %d", len(rects))
	}
	covered := make([][]bool, 80)
	for i := range covered {
		covered[i] = make([]bool, 120)
	}
	for _, r := range rects {
		for y := r.Min.Y; y < r.Max.Y; y++ {
			for x := r.Min.X; x < r.Max.X; x++ {
				if covered[y][x] {
					t.Fatalf("pixel (%d,%d) covered twice", x, y)
				}
				covered[y][x] = true
			}
		}
	}
	for y := range covered {
		for x := range covered[y] {
			if !covered[y][x] {
				t.Fatalf("pixel (%d,%d) uncovered", x, y)
			}
		}
	}
	// Degenerate parameters clamp to 1.
	if got := SplitTiles(10, 10, 0, -1); len(got) != 1 {
		t.Errorf("degenerate split: %d tiles", len(got))
	}
}

func TestAssembleTiles(t *testing.T) {
	rects := SplitTiles(8, 8, 2, 2)
	var tiles []Tile
	for i, r := range rects {
		fb := raster.NewFramebuffer(r.Dx(), r.Dy())
		for y := 0; y < fb.H; y++ {
			for x := 0; x < fb.W; x++ {
				fb.Plot(x, y, 0, uint8(i+1), 0, 0)
			}
		}
		tiles = append(tiles, Tile{Rect: r, FB: fb, Version: 1})
	}
	out, err := AssembleTiles(8, 8, tiles)
	if err != nil {
		t.Fatal(err)
	}
	if r, _, _ := out.At(0, 0); r != 1 {
		t.Errorf("tile 0 pixel: %d", r)
	}
	if r, _, _ := out.At(7, 7); r != 4 {
		t.Errorf("tile 3 pixel: %d", r)
	}
}

func TestAssembleTilesErrors(t *testing.T) {
	bad := Tile{Rect: image.Rect(0, 0, 4, 4), FB: raster.NewFramebuffer(3, 4)}
	if _, err := AssembleTiles(8, 8, []Tile{bad}); err == nil {
		t.Error("mismatched tile size accepted")
	}
	out := Tile{Rect: image.Rect(6, 6, 10, 10), FB: raster.NewFramebuffer(4, 4)}
	if _, err := AssembleTiles(8, 8, []Tile{out}); err == nil {
		t.Error("out-of-bounds tile accepted")
	}
}

func TestDetectTearing(t *testing.T) {
	rects := SplitTiles(8, 8, 2, 1)
	mk := func(v uint64) []Tile {
		return []Tile{
			{Rect: rects[0], FB: raster.NewFramebuffer(rects[0].Dx(), rects[0].Dy()), Version: 1},
			{Rect: rects[1], FB: raster.NewFramebuffer(rects[1].Dx(), rects[1].Dy()), Version: v},
		}
	}
	same := DetectTearing(mk(1))
	if same.Torn() || same.TornSeams != 0 {
		t.Errorf("same versions reported torn: %+v", same)
	}
	torn := DetectTearing(mk(3))
	if !torn.Torn() || torn.TornSeams != 1 {
		t.Errorf("skewed versions not torn: %+v", torn)
	}
	if torn.MinVersion != 1 || torn.MaxVersion != 3 {
		t.Errorf("version range: %+v", torn)
	}
	if DetectTearing(nil).Torn() {
		t.Error("empty tile set torn")
	}
}

func TestDetectTearingNonAdjacent(t *testing.T) {
	// Diagonal tiles (share only a corner) are not seams.
	tiles := []Tile{
		{Rect: image.Rect(0, 0, 4, 4), Version: 1},
		{Rect: image.Rect(4, 4, 8, 8), Version: 2},
	}
	if rep := DetectTearing(tiles); rep.TornSeams != 0 {
		t.Errorf("diagonal pair counted as seam: %+v", rep)
	}
	// 2x2 grid with one stale tile has two seams (right+down neighbours).
	rects := SplitTiles(8, 8, 2, 2)
	var grid []Tile
	for i, r := range rects {
		v := uint64(2)
		if i == 0 {
			v = 1
		}
		grid = append(grid, Tile{Rect: r, Version: v})
	}
	if rep := DetectTearing(grid); rep.TornSeams != 2 {
		t.Errorf("2x2 one-stale seams = %d, want 2", rep.TornSeams)
	}
}

// TestDepthCompositeTieOrderIndependent: parts that tie exactly on depth
// composite to the same image in either order — the lexicographically
// smaller color wins, channel by channel — and an uncovered (+Inf) pixel
// never displaces a covered one.
func TestDepthCompositeTieOrderIndependent(t *testing.T) {
	a, b := raster.NewFramebuffer(4, 1), raster.NewFramebuffer(4, 1)
	a.Plot(0, 0, 0.5, 121, 121, 118)
	b.Plot(0, 0, 0.5, 51, 51, 50) // red decides
	a.Plot(1, 0, 0.25, 9, 7, 200)
	b.Plot(1, 0, 0.25, 9, 8, 0) // green decides
	a.Plot(2, 0, -0.75, 3, 3, 4)
	b.Plot(2, 0, -0.75, 3, 3, 5) // blue decides
	a.Plot(3, 0, 0.9, 255, 255, 255)
	want := [][3]uint8{{51, 51, 50}, {9, 7, 200}, {3, 3, 4}, {255, 255, 255}}
	for _, parts := range [][]*raster.Framebuffer{{a, b}, {b, a}} {
		fb, err := CompositeAll(4, 1, parts...)
		if err != nil {
			t.Fatal(err)
		}
		for x, w := range want {
			if r, g, bl := fb.At(x, 0); [3]uint8{r, g, bl} != w {
				t.Errorf("pixel %d = %v, want %v", x, [3]uint8{r, g, bl}, w)
			}
		}
	}
}
