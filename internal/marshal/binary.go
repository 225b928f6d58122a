// Package marshal serializes RAVE's scene trees, update ops and frame
// buffers for the direct-socket protocol the services fall back to after
// SOAP subscription (§4.3). Two encoders produce the same wire format:
// the direct encoder, and a reflection-based "introspection" encoder that
// reproduces the paper's Java approach ("each node in the scene graph is
// examined for implemented interfaces, and the appropriate interface is
// used to extract the data", §5.5) — which the paper identifies as the
// bootstrap bottleneck. Benchmarks compare the two.
//
// The codec works on byte slices. Append* encoders size a message
// exactly, grow the destination once and write every bulk array (vec3
// slices, mesh indices, voxel data, the depth plane) in one flat loop.
// Decode* decoders read a bounds-checked cursor over one whole message —
// typically a transport payload, decoded in place — and check every
// length claim against the bytes actually remaining before they
// allocate, so a corrupt or hostile message costs at most its own size.
// The io.Writer/io.Reader forms (WriteScene, ReadScene, ...) are thin
// wrappers over the same core.
package marshal

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"

	"repro/internal/geom"
	"repro/internal/mathx"
	"repro/internal/scene"
)

// Wire sizes of the fixed-width fields.
const (
	u32Size  = 4
	u64Size  = 8
	vec3Size = 3 * u64Size
	mat4Size = 16 * u64Size
	// minNodeSize is the smallest encoded scene node: ID, empty name,
	// transform, group kind byte and child count.
	minNodeSize = u64Size + u32Size + mat4Size + 1 + u32Size
)

// Decoder bounds. Every count is also checked against the bytes left in
// the message, which is the bound that matters for allocation; these
// cap what a well-formed message may claim at all.
const (
	maxSliceLen  = 1 << 28
	maxStringLen = 1 << 20
	maxChildren  = 1 << 24
)

// --- encoding ---

func appendU32(b []byte, v uint32) []byte  { return binary.BigEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte  { return binary.BigEndian.AppendUint64(b, v) }
func appendF64(b []byte, v float64) []byte { return appendU64(b, math.Float64bits(v)) }

func appendStr(b []byte, s string) []byte {
	return append(appendU32(b, uint32(len(s))), s...)
}

func appendVec3(b []byte, v mathx.Vec3) []byte {
	return appendF64(appendF64(appendF64(b, v.X), v.Y), v.Z)
}

func appendMat4(b []byte, m *mathx.Mat4) []byte {
	b, out := extend(b, mat4Size)
	for i, v := range m {
		binary.BigEndian.PutUint64(out[i*u64Size:], math.Float64bits(v))
	}
	return b
}

// extend lengthens b by n bytes and returns it with the new n-byte tail,
// which bulk encoders fill in place.
func extend(b []byte, n int) (grown, tail []byte) {
	b = slices.Grow(b, n)
	b = b[:len(b)+n]
	return b, b[len(b)-n:]
}

// appendVec3s writes a count-prefixed vec3 array in one pass.
func appendVec3s(b []byte, vs []mathx.Vec3) []byte {
	b, out := extend(appendU32(b, uint32(len(vs))), vec3Size*len(vs))
	for _, v := range vs {
		binary.BigEndian.PutUint64(out, math.Float64bits(v.X))
		binary.BigEndian.PutUint64(out[8:], math.Float64bits(v.Y))
		binary.BigEndian.PutUint64(out[16:], math.Float64bits(v.Z))
		out = out[vec3Size:]
	}
	return b
}

// appendU32s writes a count-prefixed uint32 array in one pass.
func appendU32s(b []byte, vs []uint32) []byte {
	b, out := extend(appendU32(b, uint32(len(vs))), u32Size*len(vs))
	for i, v := range vs {
		binary.BigEndian.PutUint32(out[i*u32Size:], v)
	}
	return b
}

// appendF32s writes a count-prefixed float32 array in one pass.
func appendF32s(b []byte, vs []float32) []byte {
	b, out := extend(appendU32(b, uint32(len(vs))), u32Size*len(vs))
	for i, v := range vs {
		binary.BigEndian.PutUint32(out[i*u32Size:], math.Float32bits(v))
	}
	return b
}

// payloadSize is the encoded size of a payload, kind byte included.
func payloadSize(p scene.Payload) int {
	switch pl := p.(type) {
	case *scene.MeshPayload:
		m := pl.Mesh
		return 1 + 4*u32Size + vec3Size*(len(m.Positions)+len(m.Normals)+len(m.Colors)) + u32Size*len(m.Indices)
	case *scene.PointsPayload:
		return 1 + 2*u32Size + vec3Size*(len(pl.Cloud.Points)+len(pl.Cloud.Colors))
	case *scene.VoxelsPayload:
		return 1 + 3*u32Size + vec3Size + 2*u64Size + u32Size + u32Size*len(pl.Grid.Data)
	case *scene.AvatarPayload:
		return 1 + u32Size + len(pl.User) + vec3Size
	}
	return 1
}

func appendPayload(b []byte, p scene.Payload) ([]byte, error) {
	if p == nil {
		return append(b, uint8(scene.KindGroup)), nil
	}
	return appendPayloadBody(append(b, uint8(p.Kind())), p)
}

// appendPayloadBody writes the payload content after the kind byte.
func appendPayloadBody(b []byte, p scene.Payload) ([]byte, error) {
	switch pl := p.(type) {
	case *scene.MeshPayload:
		m := pl.Mesh
		b = appendVec3s(b, m.Positions)
		b = appendVec3s(b, m.Normals)
		b = appendVec3s(b, m.Colors)
		return appendU32s(b, m.Indices), nil
	case *scene.PointsPayload:
		return appendVec3s(appendVec3s(b, pl.Cloud.Points), pl.Cloud.Colors), nil
	case *scene.VoxelsPayload:
		g := pl.Grid
		b = appendU32(b, uint32(g.NX))
		b = appendU32(b, uint32(g.NY))
		b = appendU32(b, uint32(g.NZ))
		b = appendVec3(b, g.Origin)
		b = appendF64(b, g.Spacing)
		b = appendF64(b, pl.Iso)
		return appendF32s(b, g.Data), nil
	case *scene.AvatarPayload:
		return appendVec3(appendStr(b, pl.User), pl.Color), nil
	}
	return nil, fmt.Errorf("marshal: unknown payload type %T", p)
}

// --- decoding ---

// decoder is a bounds-checked cursor over one message. The first failure
// sticks: later reads return zero values and consume nothing, so decode
// code reads straight through and checks err once where it matters.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// take consumes the next n bytes, or fails if fewer remain.
func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n > len(d.b) {
		d.fail(fmt.Errorf("marshal: message ends %d bytes short: %w", n-len(d.b), io.ErrUnexpectedEOF))
		return nil
	}
	p := d.b[:n:n]
	d.b = d.b[n:]
	return p
}

func (d *decoder) u8() uint8 {
	if p := d.take(1); p != nil {
		return p[0]
	}
	return 0
}

func (d *decoder) u32() uint32 {
	if p := d.take(u32Size); p != nil {
		return binary.BigEndian.Uint32(p)
	}
	return 0
}

func (d *decoder) u64() uint64 {
	if p := d.take(u64Size); p != nil {
		return binary.BigEndian.Uint64(p)
	}
	return 0
}

func (d *decoder) f64() float64 { return math.Float64frombits(d.u64()) }

// count reads a u32 element count and bounds it twice before anything is
// allocated for it: by max, and by the bytes remaining at size bytes per
// element.
func (d *decoder) count(size, max int, what string) int {
	n := int(d.u32())
	if d.err != nil {
		return 0
	}
	if n < 0 || n > max {
		d.fail(fmt.Errorf("marshal: %s count %d exceeds %d", what, n, max))
		return 0
	}
	if n*size > len(d.b) {
		d.fail(fmt.Errorf("marshal: %s count %d needs %d bytes, %d remain: %w",
			what, n, n*size, len(d.b), io.ErrUnexpectedEOF))
		return 0
	}
	return n
}

// array reads a count-prefixed array of size-byte elements and returns
// its element count and raw bytes.
func (d *decoder) array(size int, what string) (int, []byte) {
	n := d.count(size, maxSliceLen/size, what)
	return n, d.take(n * size)
}

func (d *decoder) str() string {
	n := d.count(1, maxStringLen, "string byte")
	return string(d.take(n))
}

func (d *decoder) vec3() mathx.Vec3 {
	p := d.take(vec3Size)
	if p == nil {
		return mathx.Vec3{}
	}
	return vec3At(p)
}

func (d *decoder) mat4() mathx.Mat4 {
	var m mathx.Mat4
	if p := d.take(mat4Size); p != nil {
		for i := range m {
			m[i] = math.Float64frombits(binary.BigEndian.Uint64(p[i*u64Size:]))
		}
	}
	return m
}

// end fails if bytes remain after a complete message: a decoded message
// must re-encode to exactly the bytes it came from.
func (d *decoder) end() error {
	if d.err == nil && len(d.b) != 0 {
		d.fail(fmt.Errorf("marshal: %d trailing bytes after message", len(d.b)))
	}
	return d.err
}

func vec3At(p []byte) mathx.Vec3 {
	_ = p[vec3Size-1]
	return mathx.Vec3{
		X: math.Float64frombits(binary.BigEndian.Uint64(p)),
		Y: math.Float64frombits(binary.BigEndian.Uint64(p[8:])),
		Z: math.Float64frombits(binary.BigEndian.Uint64(p[16:])),
	}
}

// decodeVec3s fills dst from its raw wire bytes; an empty array decodes
// as nil.
func decodeVec3s(dst []mathx.Vec3, p []byte) []mathx.Vec3 {
	if len(dst) == 0 {
		return nil
	}
	for i := range dst {
		dst[i] = vec3At(p[i*vec3Size:])
	}
	return dst
}

// vec3s reads a count-prefixed vec3 array into a fresh slice.
func (d *decoder) vec3s(what string) []mathx.Vec3 {
	n, p := d.array(vec3Size, what)
	if d.err != nil {
		return nil
	}
	return decodeVec3s(make([]mathx.Vec3, n), p)
}

// meshNode carves a decoded mesh node, its payload and its mesh from one
// allocation. A mesh decoded for an op uses only the payload and mesh.
type meshNode struct {
	node    scene.Node
	payload scene.MeshPayload
	mesh    geom.Mesh
}

// meshInto decodes a mesh body. The three vec3 arrays share one
// allocation; the bytes of all four arrays are bounds-checked before it.
func (d *decoder) meshInto(m *geom.Mesh) {
	np, pos := d.array(vec3Size, "position")
	nn, nrm := d.array(vec3Size, "normal")
	nc, col := d.array(vec3Size, "color")
	ni, idx := d.array(u32Size, "index")
	if d.err != nil {
		return
	}
	vs := make([]mathx.Vec3, np+nn+nc)
	m.Positions = decodeVec3s(vs[:np:np], pos)
	m.Normals = decodeVec3s(vs[np:np+nn:np+nn], nrm)
	m.Colors = decodeVec3s(vs[np+nn:], col)
	m.Indices = make([]uint32, ni)
	for i := range m.Indices {
		m.Indices[i] = binary.BigEndian.Uint32(idx[i*u32Size:])
	}
	d.fail(m.Validate())
}

// payload decodes one payload, kind byte first. A mesh comes back with
// the meshNode that holds it, so a scene decode can use its node.
func (d *decoder) payload() (scene.Payload, *meshNode) {
	kind := scene.Kind(d.u8())
	if d.err != nil {
		return nil, nil
	}
	switch kind {
	case scene.KindGroup:
		return nil, nil
	case scene.KindMesh:
		mn := new(meshNode)
		mn.payload.Mesh = &mn.mesh
		d.meshInto(&mn.mesh)
		return &mn.payload, mn
	case scene.KindPoints:
		return &scene.PointsPayload{Cloud: &geom.PointCloud{
			Points: d.vec3s("point"),
			Colors: d.vec3s("point color"),
		}}, nil
	case scene.KindVoxels:
		return d.voxels(), nil
	case scene.KindAvatar:
		return &scene.AvatarPayload{User: d.str(), Color: d.vec3()}, nil
	}
	d.fail(fmt.Errorf("marshal: unknown payload kind %d", kind))
	return nil, nil
}

func (d *decoder) voxels() scene.Payload {
	nx, ny, nz := d.u32(), d.u32(), d.u32()
	origin := d.vec3()
	spacing := d.f64()
	iso := d.f64()
	n, p := d.array(u32Size, "voxel")
	if d.err != nil {
		return nil
	}
	// nx*ny fits 64 bits; the product with nz is checked for overflow.
	hi, cells := bits.Mul64(uint64(nx)*uint64(ny), uint64(nz))
	if hi != 0 || cells != uint64(n) {
		d.fail(fmt.Errorf("marshal: voxel data length %d for %dx%dx%d", n, nx, ny, nz))
		return nil
	}
	data := make([]float32, n)
	for i := range data {
		data[i] = math.Float32frombits(binary.BigEndian.Uint32(p[i*u32Size:]))
	}
	return &scene.VoxelsPayload{
		Grid: &geom.VoxelGrid{NX: int(nx), NY: int(ny), NZ: int(nz), Origin: origin, Spacing: spacing, Data: data},
		Iso:  iso,
	}
}

// --- io forms ---

// write sends an encoded message to out unless encoding failed.
func write(out io.Writer, b []byte, err error) error {
	if err != nil {
		return err
	}
	_, err = out.Write(b)
	return err
}

// decodeAll reads in to its end and decodes the bytes as one message.
// A reader that reports its length (bytes.Reader, bytes.Buffer) is read
// into one exactly sized buffer.
func decodeAll[T any](in io.Reader, decode func([]byte) (T, error)) (T, error) {
	var b []byte
	var err error
	if l, ok := in.(interface{ Len() int }); ok {
		b = make([]byte, l.Len())
		_, err = io.ReadFull(in, b)
	} else {
		b, err = io.ReadAll(in)
	}
	if err != nil {
		var zero T
		return zero, err
	}
	return decode(b)
}

// --- scene ---

// sceneMagic guards against decoding garbage as a scene.
const sceneMagic = 0x52415645 // "RAVE"

// SceneSize returns the exact encoded size of s: what AppendScene
// appends and WriteScene writes.
func SceneSize(s *scene.Scene) int { return u32Size + u64Size + nodeSize(s.Root) }

func nodeSize(n *scene.Node) int {
	size := u64Size + u32Size + len(n.Name) + mat4Size + payloadSize(n.Payload) + u32Size
	for _, c := range n.Children {
		size += nodeSize(c)
	}
	return size
}

// AppendScene appends a full scene snapshot — what a render service
// bootstraps from (Table 5's "service bootstrap" payload) — to b,
// growing it at most once.
func AppendScene(b []byte, s *scene.Scene) ([]byte, error) {
	b = slices.Grow(b, SceneSize(s))
	b = appendU32(b, sceneMagic)
	b = appendU64(b, s.Version)
	return appendNode(b, s.Root)
}

func appendNode(b []byte, n *scene.Node) ([]byte, error) {
	b = appendU64(b, uint64(n.ID))
	b = appendStr(b, n.Name)
	b = appendMat4(b, &n.Transform)
	b, err := appendPayload(b, n.Payload)
	if err != nil {
		return nil, err
	}
	b = appendU32(b, uint32(len(n.Children)))
	for _, c := range n.Children {
		if b, err = appendNode(b, c); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// WriteScene writes the AppendScene encoding of s to out.
func WriteScene(out io.Writer, s *scene.Scene) error {
	b, err := AppendScene(nil, s)
	return write(out, b, err)
}

// node decodes one scene node and its child count.
func (d *decoder) node() (*scene.Node, int) {
	id := scene.NodeID(d.u64())
	name := d.str()
	transform := d.mat4()
	payload, mn := d.payload()
	children := d.count(minNodeSize, maxChildren, "child")
	if d.err != nil {
		return nil, 0
	}
	var n *scene.Node
	if mn != nil {
		n = &mn.node
	} else {
		n = new(scene.Node)
	}
	n.ID, n.Name, n.Transform, n.Payload = id, name, transform, payload
	return n, children
}

// DecodeScene reconstructs a scene snapshot from exactly one encoded
// scene.
func DecodeScene(data []byte) (*scene.Scene, error) {
	d := &decoder{b: data}
	if magic := d.u32(); d.err == nil && magic != sceneMagic {
		return nil, fmt.Errorf("marshal: bad scene magic %#x", magic)
	}
	version := d.u64()
	root, children := d.node()
	if d.err != nil {
		return nil, d.err
	}
	if root.ID != scene.RootID {
		return nil, fmt.Errorf("marshal: scene root has ID %d", root.ID)
	}
	s := scene.New()
	s.Root.Name = root.Name
	s.Root.Transform = root.Transform
	s.Root.Payload = root.Payload
	s.Version = version
	if err := d.attachChildren(s, s.Root, children); err != nil {
		return nil, err
	}
	return s, d.end()
}

// attachChildren decodes count children of parent depth first. The child
// count was bounded by the bytes remaining, so presizing is safe.
func (d *decoder) attachChildren(s *scene.Scene, parent *scene.Node, count int) error {
	if count > 0 {
		parent.Children = make([]*scene.Node, 0, count)
	}
	for i := 0; i < count; i++ {
		n, children := d.node()
		if d.err != nil {
			return d.err
		}
		if err := s.Attach(parent.ID, n); err != nil {
			return err
		}
		if err := d.attachChildren(s, n, children); err != nil {
			return err
		}
	}
	return nil
}

// ReadScene reads one encoded scene from in to its end.
func ReadScene(in io.Reader) (*scene.Scene, error) { return decodeAll(in, DecodeScene) }

// --- ops ---

// opSize is the encoded size of op, kind byte included.
func opSize(op scene.Op) int {
	switch o := op.(type) {
	case *scene.AddNodeOp:
		return 1 + 2*u64Size + u32Size + len(o.Name) + mat4Size + payloadSize(o.Payload)
	case *scene.SetTransformOp:
		return 1 + u64Size + mat4Size
	case *scene.SetNameOp:
		return 1 + u64Size + u32Size + len(o.Name)
	case *scene.SetPayloadOp:
		return 1 + u64Size + payloadSize(o.Payload)
	}
	return 1 + u64Size
}

// AppendOp appends one encoded update op to b, growing it at most once.
func AppendOp(b []byte, op scene.Op) ([]byte, error) {
	b = append(slices.Grow(b, opSize(op)), uint8(op.Kind()))
	switch o := op.(type) {
	case *scene.AddNodeOp:
		b = appendU64(b, uint64(o.Parent))
		b = appendU64(b, uint64(o.ID))
		b = appendStr(b, o.Name)
		b = appendMat4(b, &o.Transform)
		return appendPayload(b, o.Payload)
	case *scene.RemoveNodeOp:
		return appendU64(b, uint64(o.ID)), nil
	case *scene.SetTransformOp:
		return appendMat4(appendU64(b, uint64(o.ID)), &o.Transform), nil
	case *scene.SetNameOp:
		return appendStr(appendU64(b, uint64(o.ID)), o.Name), nil
	case *scene.SetPayloadOp:
		return appendPayload(appendU64(b, uint64(o.ID)), o.Payload)
	}
	return nil, fmt.Errorf("marshal: unknown op type %T", op)
}

// WriteOp writes the AppendOp encoding of op to out.
func WriteOp(out io.Writer, op scene.Op) error {
	b, err := AppendOp(nil, op)
	return write(out, b, err)
}

// DecodeOp decodes exactly one encoded update op.
func DecodeOp(data []byte) (scene.Op, error) {
	d := &decoder{b: data}
	kind := scene.OpKind(d.u8())
	if d.err != nil {
		return nil, d.err
	}
	var op scene.Op
	switch kind {
	case scene.OpAddNode:
		o := &scene.AddNodeOp{
			Parent:    scene.NodeID(d.u64()),
			ID:        scene.NodeID(d.u64()),
			Name:      d.str(),
			Transform: d.mat4(),
		}
		o.Payload, _ = d.payload()
		op = o
	case scene.OpRemoveNode:
		op = &scene.RemoveNodeOp{ID: scene.NodeID(d.u64())}
	case scene.OpSetTransform:
		op = &scene.SetTransformOp{ID: scene.NodeID(d.u64()), Transform: d.mat4()}
	case scene.OpSetName:
		op = &scene.SetNameOp{ID: scene.NodeID(d.u64()), Name: d.str()}
	case scene.OpSetPayload:
		o := &scene.SetPayloadOp{ID: scene.NodeID(d.u64())}
		o.Payload, _ = d.payload()
		op = o
	default:
		return nil, fmt.Errorf("marshal: unknown op kind %d", kind)
	}
	if err := d.end(); err != nil {
		return nil, err
	}
	return op, nil
}

// ReadOp reads one encoded op from in to its end.
func ReadOp(in io.Reader) (scene.Op, error) { return decodeAll(in, DecodeOp) }
