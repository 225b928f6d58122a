package main

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// request share trace; the root span of a request has parent 0.
type span struct {
	trace, id, parent uint64
	layer, name       string
	start, end        time.Time
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced code paths can call it unconditionally.
type tracer struct {
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

// spanCtx identifies the span new child spans hang under.
type spanCtx struct{ trace, span uint64 }

func (t *tracer) newID() uint64 { return t.ids.Add(1) }

// begin opens a span; finish it with end. A zero parent trace starts a
// new request.
func (t *tracer) begin(parent spanCtx, layer, name string) *openSpan {
	if t == nil {
		return nil
	}
	s := &openSpan{t: t, span: span{trace: parent.trace, parent: parent.span, layer: layer, name: name, id: t.newID()}}
	if s.span.trace == 0 {
		s.span.trace = s.span.id
	}
	s.span.start = time.Now()
	return s
}

type openSpan struct {
	t    *tracer
	span span
}

// ctx returns the context children of this span should use.
func (s *openSpan) ctx() spanCtx {
	if s == nil {
		return spanCtx{}
	}
	return spanCtx{s.span.trace, s.span.id}
}

func (s *openSpan) end() {
	if s == nil {
		return
	}
	s.span.end = time.Now()
	s.t.add(s.span)
}

// reset drops every recorded span.
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// record stores an already-timed span under parent.
func (t *tracer) record(parent spanCtx, layer, name string, start, end time.Time) {
	if t == nil || parent.trace == 0 {
		return
	}
	t.add(span{trace: parent.trace, parent: parent.span, id: t.newID(), layer: layer, name: name, start: start, end: end})
}

// trees groups the recorded spans by request.
func (t *tracer) trees() map[uint64]*node {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	return buildTrees(spans)
}

// node is a span with its children.
type node struct {
	span
	kids []*node
}

// buildTrees links spans into one tree per trace, keyed by trace id.
// Spans whose parent is missing are dropped.
func buildTrees(spans []span) map[uint64]*node {
	byID := make(map[uint64]*node, len(spans))
	for _, s := range spans {
		byID[s.id] = &node{span: s}
	}
	roots := map[uint64]*node{}
	for _, n := range byID {
		if n.parent == 0 {
			roots[n.trace] = n
			continue
		}
		if p, ok := byID[n.parent]; ok {
			p.kids = append(p.kids, n)
		}
	}
	for _, n := range byID {
		sort.Slice(n.kids, func(i, j int) bool { return n.kids[i].start.Before(n.kids[j].start) })
	}
	return roots
}

// blockingPath attributes a span's wall time to layers along its
// critical path: walking back from the span's end, the child that ended
// last blocked it, then whichever child ended last before that one
// started, and so on. Time no chosen child covers is the span's own
// (self) time. Parallel children that finished earlier did not block
// and get nothing; a child sticking out past the cursor is clipped to
// it. The attributions sum to the span's duration.
func blockingPath(n *node, into map[string]time.Duration) {
	cursor := n.end
	kids := append([]*node(nil), n.kids...)
	sort.Slice(kids, func(i, j int) bool { return kids[i].end.After(kids[j].end) })
	var covered time.Duration
	for _, k := range kids {
		start := k.start
		if start.Before(n.start) {
			start = n.start
		}
		if !start.Before(cursor) {
			continue
		}
		if k.end.After(cursor) || start != k.start {
			into[k.layer] += cursor.Sub(start)
			covered += cursor.Sub(start)
		} else {
			blockingPath(k, into)
			covered += k.dur()
		}
		cursor = start
	}
	into[n.layer] += n.dur() - covered
}

// layerTimes returns each request's blocking-path time per layer, and
// each request's end-to-end duration, in the same order.
func layerTimes(roots map[uint64]*node) ([]map[string]time.Duration, []time.Duration) {
	var per []map[string]time.Duration
	var total []time.Duration
	ids := make([]uint64, 0, len(roots))
	for id := range roots {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		m := map[string]time.Duration{}
		blockingPath(roots[id], m)
		per = append(per, m)
		total = append(total, roots[id].dur())
	}
	return per, total
}

// formatTree renders one request's spans: offset from the request's
// start and duration.
func formatTree(root *node) string {
	var b strings.Builder
	var walk func(n *node, depth int)
	walk = func(n *node, depth int) {
		fmt.Fprintf(&b, "  %s%-*s %-14s +%8.3f ms %8.3f ms\n", strings.Repeat("  ", depth),
			30-2*depth, n.name, n.layer, ms(n.start.Sub(root.start)), ms(n.dur()))
		for _, k := range n.kids {
			walk(k, depth+1)
		}
	}
	walk(root, 0)
	return b.String()
}
