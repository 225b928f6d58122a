package main

// The traced run's own loops. Where a layer's work runs inside a
// program loop the benchmark cannot wrap — the frame branch of
// renderservice.ServeClient, the subset branch it serves to the data
// service, and Distributor.RenderDistributed — the traced run makes the
// same public calls in the same order from here, with a span around
// each. Untraced runs never use this file.

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"repro/internal/compositor"
	"repro/internal/dataservice"
	"repro/internal/imgcodec"
	"repro/internal/marshal"
	"repro/internal/raster"
	"repro/internal/renderservice"
	"repro/internal/scene"
	"repro/internal/transport"
)

// answerFailure replies to a request the render service refused or
// failed, as ServeClient does.
func answerFailure(conn *transport.Conn, err error) error {
	var ov *renderservice.ErrOverloaded
	if errors.As(err, &ov) {
		return conn.SendJSON(transport.MsgDeclined, transport.Declined{
			Reason: ov.Reason, RetryAfterMs: ov.RetryAfter.Milliseconds(),
		})
	}
	return conn.SendJSON(transport.MsgError, transport.ErrorInfo{Message: err.Error()})
}

// serveTraced answers thin-client frame requests and data-service
// subset assignments on one connection, with spans around
// RenderFrameBy, EncodeFrame, ReadScene, RenderSceneOnceBy and
// WriteFrame; the wrapped connection records the sends.
func serveTraced(rs *renderservice.Service, raw net.Conn, stats *linkStats, tr *tracer, linkBps float64) error {
	c := wrapConn(raw, stats, tr)
	conn := transport.NewConn(c)
	t, payload, err := conn.Receive()
	if err != nil {
		return err
	}
	if t != transport.MsgHello {
		return fmt.Errorf("expected hello, got %s", t)
	}
	var h transport.Hello
	if err := transport.DecodeJSON(payload, &h); err != nil {
		return err
	}
	sess, _ := rs.SessionNamed(h.Session)
	if sess == nil && h.Role != "peer" {
		return conn.SendJSON(transport.MsgError, transport.ErrorInfo{Message: "no session " + h.Session})
	}
	if err := conn.Send(transport.MsgOK, nil); err != nil {
		return err
	}
	for {
		t, payload, err := conn.Receive()
		if err != nil {
			return err
		}
		switch t {
		case transport.MsgBye:
			return nil
		case transport.MsgCameraUpdate:
			var cs transport.CameraState
			if err := transport.DecodeJSON(payload, &cs); err != nil {
				return err
			}
			sess.SetCamera(renderservice.CameraFromState(cs))
		case transport.MsgFrameRequest:
			var req transport.FrameRequest
			if err := transport.DecodeJSON(payload, &req); err != nil {
				return err
			}
			ctx := spanCtx{req.Trace, req.Parent}
			c.setCtx(ctx)
			sp := tr.begin(ctx, "renderservice", "RenderFrameBy")
			frame, err := sess.RenderFrameBy(req.W, req.H, h.Name, transport.DeadlineFromNanos(req.DeadlineNanos))
			sp.end()
			if err != nil {
				if err := answerFailure(conn, err); err != nil {
					return err
				}
				continue
			}
			sp = tr.begin(ctx, "imgcodec", "EncodeFrame")
			enc, err := sess.EncodeFrame(frame, req.Codec, linkBps)
			sp.end()
			if err != nil {
				if err := answerFailure(conn, err); err != nil {
					return err
				}
				continue
			}
			if err := conn.Send(transport.MsgFrame, enc); err != nil {
				return err
			}
		case transport.MsgSubsetAssign:
			var sa transport.SubsetAssign
			if err := transport.DecodeJSON(payload, &sa); err != nil {
				return err
			}
			ctx := spanCtx{sa.Trace, sa.Parent}
			c.setCtx(ctx)
			t2, snap, err := conn.Receive()
			if err != nil {
				return err
			}
			if t2 != transport.MsgSceneSnapshot {
				return fmt.Errorf("expected subset snapshot, got %s", t2)
			}
			sp := tr.begin(ctx, "marshal", "ReadScene")
			subset, err := marshal.ReadScene(bytes.NewReader(snap))
			sp.end()
			if err != nil {
				return err
			}
			sp = tr.begin(ctx, "renderservice", "RenderSceneOnceBy")
			fb, _, err := rs.RenderSceneOnceBy(subset, renderservice.CameraFromState(sa.Camera), sa.W, sa.H, transport.DeadlineFromNanos(sa.DeadlineNanos))
			sp.end()
			if err != nil {
				if err := answerFailure(conn, err); err != nil {
					return err
				}
				continue
			}
			var buf bytes.Buffer
			sp = tr.begin(ctx, "marshal", "WriteFrame")
			err = marshal.WriteFrame(&buf, fb, true)
			sp.end()
			if err != nil {
				return err
			}
			if err := conn.Send(transport.MsgFrameDepth, buf.Bytes()); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unexpected message %s", t)
		}
	}
}

// tracedViewer is a thin client built from the public transport and
// codec calls client.Thin makes, so the decode gets its own span.
type tracedViewer struct {
	raw  *tracedConn
	conn *transport.Conn
	tr   *tracer
	prev []byte
	// Encoded bytes received, for the codec ratio.
	encoded, frames int64
}

func dialTracedViewer(addr, name, session string, stats *linkStats, tr *tracer) (*tracedViewer, error) {
	nc, err := dial(addr)
	if err != nil {
		return nil, err
	}
	raw := wrapConn(nc, stats, tr)
	conn := transport.NewConn(raw)
	if err := hello(conn, transport.Hello{Role: "thin-client", Name: name, Session: session}); err != nil {
		nc.Close()
		return nil, err
	}
	return &tracedViewer{raw: raw, conn: conn, tr: tr}, nil
}

// frame requests one frame (moving the camera first when cam is
// non-nil) as one traced request and returns the decoded pixels. A
// paced request passes the time it was issued: the request then starts
// there, and any wait until it was sent is its own span.
func (v *tracedViewer) frame(issued time.Time, cam *raster.Camera, w, h int, codec string) ([]byte, error) {
	root := v.tr.begin(spanCtx{}, "unattributed", "frame")
	defer root.end()
	ctx := root.ctx()
	if !issued.IsZero() {
		v.tr.record(ctx, "gen", "queued", issued, root.span.start)
		root.span.start = issued
	}
	v.raw.setCtx(ctx)
	if cam != nil {
		if err := v.conn.SendJSON(transport.MsgCameraUpdate, renderservice.StateFromCamera(*cam)); err != nil {
			return nil, err
		}
	}
	err := v.conn.SendJSON(transport.MsgFrameRequest, transport.FrameRequest{
		W: w, H: h, Codec: codec, Trace: ctx.trace, Parent: ctx.span,
	})
	if err != nil {
		return nil, err
	}
	t, payload, err := v.conn.Receive()
	if err != nil {
		return nil, err
	}
	switch t {
	case transport.MsgFrame:
	case transport.MsgDeclined:
		return nil, &renderservice.ErrOverloaded{Reason: "declined"}
	default:
		return nil, fmt.Errorf("expected frame, got %s", t)
	}
	sp := v.tr.begin(ctx, "imgcodec", "Decode")
	_, fw, fh, frame, err := imgcodec.Decode(payload, v.prev)
	sp.end()
	if err != nil {
		return nil, err
	}
	v.prev = frame
	v.encoded += int64(len(payload))
	v.frames++
	// client.Thin hands the caller a framebuffer of its own.
	sp = v.tr.begin(ctx, "client", "present")
	fb := raster.NewFramebuffer(fw, fh)
	copy(fb.Color, frame)
	sp.end()
	return fb.Color, nil
}

func (v *tracedViewer) close() {
	_ = v.conn.Send(transport.MsgBye, nil) // the socket closes next either way
	v.raw.Close()
}

// tracedHandle speaks the subset protocol of core.SocketHandle from
// public transport and marshal calls, with spans around marshalling.
type tracedHandle struct {
	name    string
	session string
	raw     *tracedConn
	conn    *transport.Conn
	tr      *tracer
}

func dialTracedHandle(addr, name, session string, stats *linkStats, tr *tracer) (*tracedHandle, error) {
	nc, err := dial(addr)
	if err != nil {
		return nil, err
	}
	raw := wrapConn(nc, stats, tr)
	conn := transport.NewConn(raw)
	if err := hello(conn, transport.Hello{Role: "peer", Name: "data-service", Session: session}); err != nil {
		nc.Close()
		return nil, err
	}
	return &tracedHandle{name: name, session: session, raw: raw, conn: conn, tr: tr}, nil
}

// renderSubset is one RenderSubset call under parent; it returns the
// marshalled scene size alongside the frame.
func (h *tracedHandle) renderSubset(parent spanCtx, subset *scene.Scene, cam transport.CameraState, w, hgt int) (*raster.Framebuffer, int, error) {
	sp := h.tr.begin(parent, "dataservice", "RenderSubset")
	defer sp.end()
	ctx := sp.ctx()
	h.raw.setCtx(ctx)
	err := h.conn.SendJSON(transport.MsgSubsetAssign, transport.SubsetAssign{
		Session: h.session, W: w, H: hgt, Camera: cam, Trace: ctx.trace, Parent: ctx.span,
	})
	if err != nil {
		return nil, 0, err
	}
	var buf bytes.Buffer
	enc := h.tr.begin(ctx, "marshal", "WriteScene")
	err = marshal.WriteScene(&buf, subset)
	enc.end()
	if err != nil {
		return nil, 0, err
	}
	if err := h.conn.Send(transport.MsgSceneSnapshot, buf.Bytes()); err != nil {
		return nil, 0, err
	}
	t, payload, err := h.conn.Receive()
	if err != nil {
		return nil, 0, err
	}
	if t != transport.MsgFrameDepth {
		return nil, 0, fmt.Errorf("expected frame+depth from %s, got %s", h.name, t)
	}
	dec := h.tr.begin(ctx, "marshal", "ReadFrame")
	fb, err := marshal.ReadFrame(bytes.NewReader(payload))
	dec.end()
	return fb, buf.Len(), err
}

func (h *tracedHandle) close() {
	_ = h.conn.Send(transport.MsgBye, nil) // the socket closes next either way
	h.raw.Close()
}

// renderDistributedTraced is one Distributor.RenderDistributed frame:
// extract each service's subset, render the subsets in parallel, and
// depth-composite the results. It returns the frame and the marshalled
// scene bytes shipped.
func renderDistributedTraced(tr *tracer, sess *dataservice.Session, asg map[string][]scene.NodeID, handles map[string]*tracedHandle, w, h int) (*raster.Framebuffer, int, error) {
	root := tr.begin(spanCtx{}, "unattributed", "frame")
	defer root.end()
	ctx := root.ctx()
	cam := sess.Camera()
	names := make([]string, 0, len(asg))
	for n := range asg {
		names = append(names, n)
	}
	sort.Strings(names)
	subsets := make([]*scene.Scene, len(names))
	for i, n := range names {
		sp := tr.begin(ctx, "dataservice", "ExtractSubset")
		var err error
		sess.Scene(func(sc *scene.Scene) { subsets[i], err = sc.ExtractSubset(asg[n]) })
		sp.end()
		if err != nil {
			return nil, 0, err
		}
	}
	parts := make([]*raster.Framebuffer, len(names))
	sizes := make([]int, len(names))
	errs := make([]error, len(names))
	var wg sync.WaitGroup
	for i, n := range names {
		wg.Add(1)
		go func(i int, hd *tracedHandle) {
			defer wg.Done()
			parts[i], sizes[i], errs[i] = hd.renderSubset(ctx, subsets[i], cam, w, h)
		}(i, handles[n])
	}
	wg.Wait()
	bytesShipped := 0
	for i := range names {
		if errs[i] != nil {
			return nil, 0, errs[i]
		}
		bytesShipped += sizes[i]
	}
	sp := tr.begin(ctx, "compositor", "CompositeAll")
	fb, err := compositor.CompositeAll(w, h, parts...)
	sp.end()
	return fb, bytesShipped, err
}
