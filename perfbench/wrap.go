package main

import (
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataservice/wal"
)

// linkStats counts the bytes written to one or more wrapped links and
// the time the writes took.
type linkStats struct {
	written atomic.Int64
	writeNs atomic.Int64
}

func (s *linkStats) reset() {
	s.written.Store(0)
	s.writeNs.Store(0)
}

// tracedConn wraps a loopback net.Conn: it counts traffic into stats
// and, when a request context is set, records each Write as a
// transport span of that request. The context is set by whichever
// goroutine is about to write on the link.
type tracedConn struct {
	net.Conn
	stats *linkStats
	tr    *tracer
	cur   atomic.Pointer[spanCtx]
}

func wrapConn(c net.Conn, stats *linkStats, tr *tracer) *tracedConn {
	return &tracedConn{Conn: c, stats: stats, tr: tr}
}

// setCtx names the request later writes belong to.
func (c *tracedConn) setCtx(ctx spanCtx) { c.cur.Store(&ctx) }

func (c *tracedConn) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := c.Conn.Write(p)
	end := time.Now()
	c.stats.written.Add(int64(n))
	c.stats.writeNs.Add(int64(end.Sub(start)))
	if ctx := c.cur.Load(); ctx != nil {
		c.tr.record(*ctx, "transport", "conn.Write", start, end)
	}
	return n, err
}

// walStats counts what the journal asked of the disk.
type walStats struct {
	bytes        atomic.Int64
	syncs        atomic.Int64
	syncNs       atomic.Int64
	checkpoints  atomic.Int64
	checkpointNs atomic.Int64
}

func (s *walStats) reset() {
	s.bytes.Store(0)
	s.syncs.Store(0)
	s.syncNs.Store(0)
	s.checkpoints.Store(0)
	s.checkpointNs.Store(0)
}

// tracedStore wraps a wal.Store (NodeConfig.Journal's product): segment
// writes and syncs are counted, and a checkpoint — from Replace until
// Promote — is timed. Spans go to the request named by cur, the commit
// in flight on this session's journal.
type tracedStore struct {
	inner wal.Store
	stats *walStats
	tr    *tracer
	cur   atomic.Pointer[spanCtx]

	mu        sync.Mutex
	replacing time.Time
}

func (s *tracedStore) ctx() spanCtx {
	if p := s.cur.Load(); p != nil {
		return *p
	}
	return spanCtx{}
}

func (s *tracedStore) Open() (io.ReadCloser, error) { return s.inner.Open() }

func (s *tracedStore) Append() (wal.WriteSyncCloser, error) {
	seg, err := s.inner.Append()
	if err != nil {
		return nil, err
	}
	return &tracedSeg{WriteSyncCloser: seg, s: s}, nil
}

func (s *tracedStore) Replace() (wal.WriteSyncCloser, error) {
	s.mu.Lock()
	s.replacing = time.Now()
	s.mu.Unlock()
	seg, err := s.inner.Replace()
	if err != nil {
		return nil, err
	}
	return &tracedSeg{WriteSyncCloser: seg, s: s}, nil
}

func (s *tracedStore) Promote() error {
	err := s.inner.Promote()
	end := time.Now()
	s.mu.Lock()
	start := s.replacing
	s.mu.Unlock()
	s.stats.checkpoints.Add(1)
	s.stats.checkpointNs.Add(int64(end.Sub(start)))
	s.tr.record(s.ctx(), "wal", "checkpoint", start, end)
	return err
}

type tracedSeg struct {
	wal.WriteSyncCloser
	s *tracedStore
}

func (g *tracedSeg) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := g.WriteSyncCloser.Write(p)
	g.s.stats.bytes.Add(int64(n))
	g.s.tr.record(g.s.ctx(), "wal", "seg.Write", start, time.Now())
	return n, err
}

func (g *tracedSeg) Sync() error {
	start := time.Now()
	err := g.WriteSyncCloser.Sync()
	end := time.Now()
	g.s.stats.syncs.Add(1)
	g.s.stats.syncNs.Add(int64(end.Sub(start)))
	g.s.tr.record(g.s.ctx(), "wal", "seg.Sync", start, end)
	return err
}
