//go:build linux

package main

import (
	"context"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"softreputation/internal/client"
)

// wireCounter counts what crosses the generator's connections.
type wireCounter struct {
	read, written atomic.Int64
	dials         atomic.Int64
}

func (c *wireCounter) bytes() int64 { return c.read.Load() + c.written.Load() }

// countingConn counts the bytes of one connection, HTTP headers
// included, at the point where they enter and leave the socket.
type countingConn struct {
	net.Conn
	c *wireCounter
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.c.read.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.c.written.Add(int64(n))
	return n, err
}

// newCountedClient returns the repo's keep-alive client transport with
// byte counting installed through DialContext. With numWorkers closed-
// loop callers it holds numWorkers connections; dials says so.
func newCountedClient(c *wireCounter) *http.Client {
	tr := client.NewTransport()
	dial := tr.DialContext
	tr.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		conn, err := dial(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		c.dials.Add(1)
		return countingConn{Conn: conn, c: c}, nil
	}
	return &http.Client{Transport: tr}
}

// phase is what one stretch of closed-loop driving produced.
type phase struct {
	samples      []sample // all workers', unordered
	attempted    int      // logical operations
	failed       int
	firstFailure string
	acked        []ackedVote
	next         [numWorkers]int // each worker's stream position afterwards
}

// merge adds q's samples, counts and acknowledged votes to p. Stream
// positions are not merged: they belong to the latest stretch.
func (p *phase) merge(q *phase) {
	p.samples = append(p.samples, q.samples...)
	p.attempted += q.attempted
	p.failed += q.failed
	if p.firstFailure == "" {
		p.firstFailure = q.firstFailure
	}
	p.acked = append(p.acked, q.acked...)
}

// drive runs numWorkers closed-loop workers on wl's streams from
// positions from. Each worker sends its next request only when the
// previous one completed. With count > 0 every worker performs exactly
// count requests; otherwise workers stop starting requests at deadline.
// Sample completion times are relative to t0.
func (c *catalogue) drive(ctx context.Context, wl *workload, t *target, from [numWorkers]int, count int, t0, deadline time.Time) phase {
	var parts [numWorkers]phase
	var wg sync.WaitGroup
	for w := 0; w < numWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ph := &parts[w]
			var o op
			k := from[w]
			for n := 0; ctx.Err() == nil; n++ {
				if count > 0 && n == count {
					break
				}
				start := time.Now()
				if count <= 0 && !start.Before(deadline) {
					break
				}
				wl.gen(c, w, k, &o)
				k++
				failed, why := c.execute(ctx, t, &o)
				end := time.Now()
				ph.attempted += o.ops()
				ph.failed += failed
				if failed > 0 && ph.firstFailure == "" {
					ph.firstFailure = why
				}
				if o.kind == opVote && failed == 0 {
					ph.acked = append(ph.acked, ackedVote{prog: o.progs[0], user: o.user})
				}
				ph.samples = append(ph.samples, sample{
					end: end.Sub(t0), dur: end.Sub(start), kind: o.kind, ops: int32(o.ops() - failed),
				})
			}
			ph.next[w] = k
		}(w)
	}
	wg.Wait()
	var all phase
	for w := range parts {
		all.merge(&parts[w])
		all.next[w] = parts[w].next[w]
	}
	return all
}
