package main

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/transport"
)

// server accepts loopback connections and runs one handler goroutine
// per connection; close stops accepting, closes every connection and
// waits for the handlers to return.
type server struct {
	ln net.Listener
	wg sync.WaitGroup

	mu    sync.Mutex
	conns []net.Conn
}

func serve(handle func(net.Conn)) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{ln: ln}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			s.conns = append(s.conns, c)
			s.mu.Unlock()
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				handle(c)
				c.Close()
			}()
		}
	}()
	return s, nil
}

func (s *server) addr() string { return s.ln.Addr().String() }

func (s *server) close() {
	s.ln.Close()
	s.mu.Lock()
	for _, c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// dial opens a loopback connection.
func dial(addr string) (net.Conn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	return c, nil
}

// hello performs the client side of the socket handshake on conn.
func hello(conn *transport.Conn, h transport.Hello) error {
	if err := conn.SendJSON(transport.MsgHello, h); err != nil {
		return err
	}
	t, payload, err := conn.Receive()
	if err != nil {
		return err
	}
	if t != transport.MsgOK {
		var ei transport.ErrorInfo
		_ = transport.DecodeJSON(payload, &ei) // the refusal is reported either way
		return fmt.Errorf("handshake refused (%s): %s", t, ei.Message)
	}
	return nil
}
