package marshal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/raster"
)

// FrameSize returns the exact encoded size of fb: what AppendFrame
// appends and WriteFrame writes.
func FrameSize(fb *raster.Framebuffer, includeDepth bool) int {
	size := 2*u32Size + 1 + u32Size + len(fb.Color)
	if includeDepth {
		size += u32Size + u32Size*len(fb.Depth)
	}
	return size
}

// AppendFrame appends a framebuffer (color + depth) — what one render
// service sends another for depth compositing under dataset
// distribution — to b, growing it at most once.
func AppendFrame(b []byte, fb *raster.Framebuffer, includeDepth bool) []byte {
	b = slices.Grow(b, FrameSize(fb, includeDepth))
	b = appendU32(b, uint32(fb.W))
	b = appendU32(b, uint32(fb.H))
	var flag uint8
	if includeDepth {
		flag = 1
	}
	b = append(appendU32(append(b, flag), uint32(len(fb.Color))), fb.Color...)
	if includeDepth {
		b = appendF32s(b, fb.Depth)
	}
	return b
}

// WriteFrame writes the AppendFrame encoding of fb to out.
func WriteFrame(out io.Writer, fb *raster.Framebuffer, includeDepth bool) error {
	return write(out, AppendFrame(nil, fb, includeDepth), nil)
}

// DecodeFrame decodes exactly one encoded framebuffer straight into a
// new Framebuffer. Frames without depth get a cleared (all +Inf) depth
// plane.
func DecodeFrame(data []byte) (*raster.Framebuffer, error) {
	d := &decoder{b: data}
	w, h := int(d.u32()), int(d.u32())
	hasDepth := d.u8()
	if d.err != nil {
		return nil, d.err
	}
	if w <= 0 || h <= 0 || w > 1<<14 || h > 1<<14 {
		return nil, fmt.Errorf("marshal: frame dimensions %dx%d out of range", w, h)
	}
	if hasDepth > 1 {
		return nil, fmt.Errorf("marshal: frame depth flag %d", hasDepth)
	}
	n, color := d.array(1, "color byte")
	if d.err == nil && n != w*h*3 {
		return nil, fmt.Errorf("marshal: color plane %d bytes, want %d", n, w*h*3)
	}
	var depth []byte
	if hasDepth == 1 {
		var nd int
		nd, depth = d.array(u32Size, "depth")
		if d.err == nil && nd != w*h {
			return nil, fmt.Errorf("marshal: depth plane %d floats, want %d", nd, w*h)
		}
	}
	if err := d.end(); err != nil {
		return nil, err
	}
	fb := &raster.Framebuffer{W: w, H: h, Color: make([]uint8, n), Depth: make([]float32, w*h)}
	copy(fb.Color, color)
	if hasDepth == 0 {
		inf := float32(math.Inf(1))
		for i := range fb.Depth {
			fb.Depth[i] = inf
		}
		return fb, nil
	}
	for i := range fb.Depth {
		fb.Depth[i] = math.Float32frombits(binary.BigEndian.Uint32(depth[i*u32Size:]))
	}
	return fb, nil
}

// ReadFrame reads one encoded framebuffer from in to its end.
func ReadFrame(in io.Reader) (*raster.Framebuffer, error) { return decodeAll(in, DecodeFrame) }

// EncodeFrameDirect converts the color plane to wire bytes with a single
// bulk copy — the C/C++ thin client's "data pointer is directly cast to
// the appropriate image format, involving minimal overhead" (§5.1).
func EncodeFrameDirect(fb *raster.Framebuffer) []byte {
	out := make([]byte, 8+len(fb.Color))
	binary.BigEndian.PutUint32(out, uint32(fb.W))
	binary.BigEndian.PutUint32(out[4:], uint32(fb.H))
	copy(out[8:], fb.Color)
	return out
}

// EncodeFramePerPixel produces the identical bytes, but the way the
// paper's J2ME client had to: "sending each pixel one at a time,
// converting to a series of bytes" (§5.1) — each channel is boxed and
// routed through the generic binary encoder. The paper measured over two
// minutes per frame this way versus 0.2 s for the direct path;
// BenchmarkPixelMarshal* reproduces the gap's shape.
func EncodeFramePerPixel(fb *raster.Framebuffer) []byte {
	var buf bytes.Buffer
	buf.Grow(8 + len(fb.Color))
	_ = binary.Write(&buf, binary.BigEndian, uint32(fb.W))
	_ = binary.Write(&buf, binary.BigEndian, uint32(fb.H))
	for y := 0; y < fb.H; y++ {
		for x := 0; x < fb.W; x++ {
			r, g, b := fb.At(x, y)
			// One boxed, reflective write per channel: the per-pixel
			// conversion cost the PDA could not afford.
			_ = binary.Write(&buf, binary.BigEndian, r)
			_ = binary.Write(&buf, binary.BigEndian, g)
			_ = binary.Write(&buf, binary.BigEndian, b)
		}
	}
	return buf.Bytes()
}

// DecodeFrameColor reverses EncodeFrameDirect/EncodeFramePerPixel.
func DecodeFrameColor(data []byte) (*raster.Framebuffer, error) {
	if len(data) < 8 {
		return nil, fmt.Errorf("marshal: frame header short (%d bytes)", len(data))
	}
	w := int(binary.BigEndian.Uint32(data))
	h := int(binary.BigEndian.Uint32(data[4:]))
	if w <= 0 || h <= 0 || w > 1<<14 || h > 1<<14 {
		return nil, fmt.Errorf("marshal: frame dimensions %dx%d out of range", w, h)
	}
	if len(data) != 8+w*h*3 {
		return nil, fmt.Errorf("marshal: frame body %d bytes, want %d", len(data)-8, w*h*3)
	}
	fb := raster.NewFramebuffer(w, h)
	copy(fb.Color, data[8:])
	return fb, nil
}
