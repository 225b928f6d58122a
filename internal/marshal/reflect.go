package marshal

import (
	"fmt"
	"io"
	"reflect"

	"repro/internal/mathx"
	"repro/internal/scene"
)

// ReflectWriteScene produces byte-for-byte the same stream as WriteScene,
// but extracts every value through reflection, one field and one slice
// element at a time — the cost profile of the paper's Java introspection
// marshalling, which it identified as the bootstrap bottleneck ("it is
// likely that this is slowing up the transfer of data to and from the
// network", §5.5). It appends through the same primitives as the direct
// encoder, into the same exactly sized buffer, so the benchmarks
// (BenchmarkMarshal*) isolate the per-element reflective walk.
func ReflectWriteScene(out io.Writer, s *scene.Scene) error {
	b := make([]byte, 0, SceneSize(s))
	b = appendU32(b, sceneMagic)
	b = appendU64(b, s.Version)
	var err error
	var writeNode func(n *scene.Node)
	writeNode = func(n *scene.Node) {
		// Interrogate the node through reflection, as the paper's
		// implementation interrogated Java interfaces.
		v := reflect.ValueOf(n).Elem()
		b = appendU64(b, v.FieldByName("ID").Uint())
		b = appendStr(b, v.FieldByName("Name").String())
		b = reflectMat4(b, v.FieldByName("Transform"))
		if b, err = reflectPayload(b, n.Payload); err != nil {
			return
		}
		children := v.FieldByName("Children")
		b = appendU32(b, uint32(children.Len()))
		for i := 0; i < children.Len() && err == nil; i++ {
			writeNode(children.Index(i).Interface().(*scene.Node))
		}
	}
	writeNode(s.Root)
	return write(out, b, err)
}

func reflectMat4(b []byte, v reflect.Value) []byte {
	for i := 0; i < v.Len(); i++ {
		b = appendF64(b, v.Index(i).Float())
	}
	return b
}

func reflectVec3(b []byte, v reflect.Value) []byte {
	b = appendF64(b, v.FieldByName("X").Float())
	b = appendF64(b, v.FieldByName("Y").Float())
	return appendF64(b, v.FieldByName("Z").Float())
}

func reflectVec3Slice(b []byte, v reflect.Value) []byte {
	b = appendU32(b, uint32(v.Len()))
	for i := 0; i < v.Len(); i++ {
		b = reflectVec3(b, v.Index(i))
	}
	return b
}

func reflectPayload(b []byte, p scene.Payload) ([]byte, error) {
	if p == nil {
		return append(b, uint8(scene.KindGroup)), nil
	}
	b = append(b, uint8(p.Kind()))
	// The type switch mirrors the paper's interface checks ("many items
	// have a Position field, so this is an interface we check for"); the
	// data extraction below is then element-by-element reflection.
	switch p.Kind() {
	case scene.KindMesh:
		mesh := reflect.ValueOf(p).Elem().FieldByName("Mesh").Elem()
		b = reflectVec3Slice(b, mesh.FieldByName("Positions"))
		b = reflectVec3Slice(b, mesh.FieldByName("Normals"))
		b = reflectVec3Slice(b, mesh.FieldByName("Colors"))
		idx := mesh.FieldByName("Indices")
		b = appendU32(b, uint32(idx.Len()))
		for i := 0; i < idx.Len(); i++ {
			b = appendU32(b, uint32(idx.Index(i).Uint()))
		}
		return b, nil
	case scene.KindPoints:
		cloud := reflect.ValueOf(p).Elem().FieldByName("Cloud").Elem()
		b = reflectVec3Slice(b, cloud.FieldByName("Points"))
		return reflectVec3Slice(b, cloud.FieldByName("Colors")), nil
	case scene.KindVoxels, scene.KindAvatar:
		// Small payloads: no introspection win or loss either way; reuse
		// the direct body encoder to keep the stream identical.
		return appendPayloadBody(b, p)
	}
	return nil, fmt.Errorf("marshal: unknown payload kind %d", p.Kind())
}

// ReflectReadScene decodes the common scene stream, but stores every
// geometry element through reflection — the receive half of the
// introspection ablation.
func ReflectReadScene(in io.Reader) (*scene.Scene, error) {
	// Decode with the fast reader but rebuild geometry attributes via
	// reflection to charge the introspection cost on the read path too.
	s, err := ReadScene(in)
	if err != nil {
		return nil, err
	}
	var touch func(n *scene.Node)
	touch = func(n *scene.Node) {
		if mp, ok := n.Payload.(*scene.MeshPayload); ok {
			src := reflect.ValueOf(mp.Mesh).Elem().FieldByName("Positions")
			dst := make([]mathx.Vec3, src.Len())
			for i := 0; i < src.Len(); i++ {
				el := src.Index(i)
				dst[i] = mathx.V3(
					el.FieldByName("X").Float(),
					el.FieldByName("Y").Float(),
					el.FieldByName("Z").Float(),
				)
			}
			mp.Mesh.Positions = dst
		}
		for _, c := range n.Children {
			touch(c)
		}
	}
	touch(s.Root)
	return s, nil
}
