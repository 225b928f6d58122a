package renderservice

import (
	"bytes"
	"context"
	"net"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/marshal"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// These tests are the shutdown-path audit for the goroutine a
// subscription spawns alongside its read loop: heartbeat (version
// probes + load reports). It must exit promptly in each of its two
// termination modes — the stop channel closing (the subscribe read
// loop returned and ran `defer close(stop)`) and the connection dying
// abruptly under it (the next Send fails). The dangerous shape is a
// goroutine parked in a blocking Write on a peer that stopped reading:
// stop can never interrupt it, so the contract is that whoever owns the
// stream must close it — SubscribeToDataResilient does (rw.Close() after
// every subscribe attempt), and plain SubscribeToData callers own rw
// themselves. An abrupt close unblocks the Write with an error and the
// goroutine exits; these tests pin that behaviour down.

// waitWaiters blocks until at least n timers are armed on the virtual
// clock, so an Advance is guaranteed to fire them (registering a timer
// races with the test's advance otherwise).
func waitWaiters(t *testing.T, clk *vclock.Virtual, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for clk.PendingWaiters() < n {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d clock waiters", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// drainUntilClosed reads and discards raw bytes so heartbeat sends
// complete, until the pipe is torn down.
func drainUntilClosed(c net.Conn) {
	buf := make([]byte, 4096)
	for {
		if _, err := c.Read(buf); err != nil {
			return
		}
	}
}

// TestHeartbeatExitsOnStop proves closing the stop channel ends the
// heartbeat even with probe and report timers pending on the virtual
// clock.
func TestHeartbeatExitsOnStop(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(1000, 0))
	svc := New(Config{Name: "rs", Device: device.CentrinoLaptop, Clock: clk})
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	go drainUntilClosed(server)

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		svc.heartbeat(transport.NewConn(client), SubscribeOpts{
			ProbeInterval: 50 * time.Millisecond, ReportInterval: 70 * time.Millisecond,
		}, stop)
		close(done)
	}()

	// Let it arm its timers and fire at least one probe, then stop it.
	waitWaiters(t, clk, 2)
	clk.Advance(60 * time.Millisecond)
	close(stop)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("heartbeat goroutine leaked after stop closed")
	}
}

// TestHeartbeatExitsOnAbruptClose proves an abruptly closed connection
// ends the heartbeat at its next send, with no stop signal at all.
func TestHeartbeatExitsOnAbruptClose(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(1000, 0))
	svc := New(Config{Name: "rs", Device: device.CentrinoLaptop, Clock: clk})
	client, server := net.Pipe()
	defer client.Close()

	stop := make(chan struct{})
	defer close(stop)
	done := make(chan struct{})
	go func() {
		svc.heartbeat(transport.NewConn(client), SubscribeOpts{
			ProbeInterval: 50 * time.Millisecond,
		}, stop)
		close(done)
	}()

	// Kill the peer before the first probe fires: the send must error
	// and the goroutine must exit without anyone closing stop.
	waitWaiters(t, clk, 1)
	server.Close()
	clk.Advance(60 * time.Millisecond)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("heartbeat goroutine leaked after abrupt connection close")
	}
}

// TestSubscribeStopsHeartbeatWithReadLoop proves the full subscription
// path: when the data-service socket dies abruptly mid-stream, the read
// loop returns AND the heartbeat it spawned is stopped with it — no
// goroutine survives the subscription. The virtual clock's waiter count
// is the tell: a leaked heartbeat would re-arm its timers forever.
func TestSubscribeStopsHeartbeatWithReadLoop(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(1000, 0))
	svc := New(Config{Name: "rs", Device: device.CentrinoLaptop, Clock: clk})
	client, server := net.Pipe()
	defer client.Close()

	subDone := make(chan error, 1)
	go func() {
		_, err := svc.subscribe(context.Background(), transport.NewConn(client), "s", SubscribeOpts{
			ProbeInterval: 50 * time.Millisecond, ReportInterval: 70 * time.Millisecond,
		}, nil)
		subDone <- err
	}()

	// Data-service side: accept the hello, ship a bootstrap snapshot.
	sconn := transport.NewConn(server)
	if mt, _, err := sconn.Receive(); err != nil || mt != transport.MsgHello {
		t.Fatalf("hello = %v, %v", mt, err)
	}
	var snap bytes.Buffer
	if err := marshal.WriteScene(&snap, testScene(t)); err != nil {
		t.Fatal(err)
	}
	if err := sconn.Send(transport.MsgSceneSnapshot, snap.Bytes()); err != nil {
		t.Fatal(err)
	}
	// Kill the socket abruptly; the read loop must return and run
	// `defer close(stop)`, taking the heartbeat down with it.
	server.Close()
	select {
	case <-subDone:
	case <-time.After(5 * time.Second):
		t.Fatal("subscription read loop hung after abrupt close")
	}

	// Any heartbeat still alive keeps re-arming virtual-clock timers;
	// after it exits the waiter count stays flat.
	deadline := time.Now().Add(5 * time.Second)
	for clk.PendingWaiters() != 0 {
		clk.Advance(100 * time.Millisecond)
		if time.Now().After(deadline) {
			t.Fatalf("heartbeat leaked: %d virtual-clock waiters still pending", clk.PendingWaiters())
		}
		time.Sleep(time.Millisecond)
	}
}
