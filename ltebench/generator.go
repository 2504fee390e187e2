package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ltephy/internal/fronthaul"
	"ltephy/internal/uplink"
)

// Generator phases.
const (
	phaseWarm = iota
	phase1x
	phase2x
	phaseSat
	nPhases
)

// phaseStats are one phase's ack dispositions and clocks.
type phaseStats struct {
	lat, ackWait    []int64 // due -> done ack; write return -> ack
	done, shed, dup int64
	lastAck         int64
}

// pendingFrame is a sent frame without a terminal ack yet.
type pendingFrame struct {
	due, wrote int64
	phase      int
}

// genCell is one cell's sender state. The sender goroutine owns conn,
// epoch, nextSeq and offeredUsers; mu guards the rest, which the cell's
// ack readers update.
type genCell struct {
	id     uint16
	frames [][]byte
	users  []int

	conn         net.Conn
	nextSeq      int64
	offeredUsers int64

	mu       sync.Mutex
	out      map[int64]*pendingFrame
	stats    [nPhases]phaseStats
	redirect bool  // the current connection was redirected or broke
	connGen  int64 // identifies the current connection to its reader
}

// generator is the open-loop load generator: one sender goroutine (the
// caller's) writes pre-encoded ring frames, rewriting only the sequence
// number and header CRC per send, and one reader per connection collects
// acks. Latency runs from each frame's due time, so a stall in the
// sender or the transport is charged to every frame it delays. A frame
// stays outstanding until its terminal ack; a redirect (drain or
// migration) or a broken connection makes the sender re-resolve the
// cell's owner and replay every outstanding frame in sequence order.
type generator struct {
	cells   []*genCell
	resolve func(cell int) (network, addr string, epoch int64, err error)
	tr      *tracer
	// onKick, when set, is called halfway through every timed phase (it
	// must not block the sender).
	onKick func()

	// Sender-owned clocks.
	lags, writes []int64
	bytes        int64
	replays      int64
	conns        []net.Conn

	readers   sync.WaitGroup
	redirects atomic.Int64
	badAcks   atomic.Int64
}

func newGenerator(rings [][]*uplink.Subframe, frames [][][]byte,
	resolve func(int) (string, string, int64, error), tr *tracer) *generator {
	g := &generator{resolve: resolve, tr: tr}
	for c, ring := range rings {
		gc := &genCell{id: uint16(c), frames: frames[c], out: map[int64]*pendingFrame{}}
		for _, sf := range ring {
			gc.users = append(gc.users, len(sf.Users))
		}
		g.cells = append(g.cells, gc)
	}
	return g
}

// openLoop offers every cell one frame per interval for dur, then waits
// for all terminal acks.
func (g *generator) openLoop(phase int, interval, dur int64) error {
	t0 := now()
	k := g.kicks()
	for i := int64(0); i*interval < dur; i++ {
		due := t0 + i*interval
		sleepUntil(due)
		g.lags = append(g.lags, now()-due)
		k(i*interval, dur)
		for _, c := range g.cells {
			if err := g.send(c, phase, due); err != nil {
				return err
			}
		}
	}
	return g.drain()
}

// saturateFor offers frames as fast as the transport accepts them for
// dur, waits for their acks, and returns the phase's start time.
func (g *generator) saturateFor(phase int, dur int64) (int64, error) {
	t0 := now()
	k := g.kicks()
	for now()-t0 < dur {
		k(now()-t0, dur)
		for _, c := range g.cells {
			if err := g.send(c, phase, now()); err != nil {
				return t0, err
			}
		}
	}
	return t0, g.drain()
}

// kicks returns a phase's kick schedule: called with the time into the
// phase, it fires onKick once, halfway through.
func (g *generator) kicks() func(at, dur int64) {
	fired := g.onKick == nil
	return func(at, dur int64) {
		if !fired && at >= dur/2 {
			g.onKick()
			fired = true
		}
	}
}

// warm offers n frames per cell as fast as possible during set-up, then
// forgets the sender clocks so they cover the timed phases only.
func (g *generator) warm(n int) error {
	for i := 0; i < n; i++ {
		for _, c := range g.cells {
			if err := g.send(c, phaseWarm, now()); err != nil {
				return err
			}
		}
	}
	err := g.drain()
	g.lags, g.writes, g.bytes, g.replays = nil, nil, 0, 0
	return err
}

func (g *generator) send(c *genCell, phase int, due int64) error {
	if err := g.ensureConn(c); err != nil {
		return err
	}
	seq := c.nextSeq
	c.nextSeq++
	c.offeredUsers += int64(c.users[seq%int64(len(c.users))])
	c.mu.Lock()
	c.out[seq] = &pendingFrame{due: due, phase: phase}
	c.mu.Unlock()
	g.write(c, seq)
	return nil
}

// write sends the ring frame for seq with its sequence number and header
// CRC rewritten. A failed write marks the connection for replacement.
func (g *generator) write(c *genCell, seq int64) {
	f := c.frames[seq%int64(len(c.frames))]
	binary.LittleEndian.PutUint64(f[8:16], uint64(seq))
	binary.LittleEndian.PutUint32(f[24:28], crc32.ChecksumIEEE(f[0:24]))
	t := now()
	_, err := c.conn.Write(f)
	e := now()
	g.tr.add("gen.write", -1, int(c.id), seq, -1, t, e)
	g.writes = append(g.writes, e-t)
	g.bytes += int64(len(f))
	c.mu.Lock()
	if err != nil {
		c.redirect = true
	} else if p := c.out[seq]; p != nil {
		p.wrote = e
	}
	c.mu.Unlock()
}

// ensureConn (re)connects a cell whose connection is missing, redirected
// or broken, and replays its outstanding frames in sequence order.
func (g *generator) ensureConn(c *genCell) error {
	c.mu.Lock()
	need, redirected := c.conn == nil || c.redirect, c.redirect
	c.mu.Unlock()
	if !need {
		return nil
	}
	if c.conn != nil {
		halfClose(c.conn) // the server acks what it holds, then closes
		c.conn = nil
	}
	if redirected {
		time.Sleep(500 * time.Microsecond) // let the drain or migration finish
	}
	deadline := now() + opTimeout.Nanoseconds()
	for {
		network, addr, _, err := g.resolve(int(c.id))
		if err == nil {
			var conn net.Conn
			if conn, err = net.DialTimeout(network, addr, time.Second); err == nil {
				c.conn = conn
				g.conns = append(g.conns, conn)
				c.mu.Lock()
				c.connGen++
				gen := c.connGen
				c.redirect = false
				seqs := make([]int64, 0, len(c.out))
				for s := range c.out {
					seqs = append(seqs, s)
				}
				c.mu.Unlock()
				g.readers.Add(1)
				go g.readAcks(c, conn, gen)
				sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
				for _, s := range seqs {
					g.replays++
					g.write(c, s)
				}
				return nil
			}
		}
		if now() > deadline {
			return fmt.Errorf("cell %d: no connection to its owner: %v", c.id, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func halfClose(conn net.Conn) {
	if cw, ok := conn.(interface{ CloseWrite() error }); ok && cw.CloseWrite() == nil {
		return
	}
	conn.Close()
}

// readAcks applies one connection's acks until the server closes it. The
// first terminal ack per sequence counts; replay echoes are ignored.
func (g *generator) readAcks(c *genCell, conn net.Conn, gen int64) {
	defer g.readers.Done()
	defer conn.Close()
	var b [fronthaul.AckLen]byte
	for {
		if _, err := io.ReadFull(conn, b[:]); err != nil {
			c.mu.Lock()
			if gen == c.connGen {
				c.redirect = true // lost mid-stream: the sender reconnects and replays
			}
			c.mu.Unlock()
			return
		}
		t := now()
		a, err := fronthaul.ParseAck(&b)
		if err != nil || a.Cell != c.id {
			g.badAcks.Add(1)
			continue
		}
		c.mu.Lock()
		if a.Status == fronthaul.AckRedirect {
			g.redirects.Add(1)
			if gen == c.connGen {
				c.redirect = true
			}
			c.mu.Unlock()
			continue
		}
		p := c.out[a.Seq]
		if p == nil {
			c.mu.Unlock()
			continue
		}
		delete(c.out, a.Seq)
		wrote := p.wrote
		ps := &c.stats[p.phase]
		switch a.Status {
		case fronthaul.AckDone:
			ps.done++
			ps.lat = append(ps.lat, t-p.due)
			if wrote > 0 {
				ps.ackWait = append(ps.ackWait, t-wrote)
			}
		case fronthaul.AckDuplicate:
			ps.dup++ // processed earlier; its first ack went to an older connection
		default:
			ps.shed++
		}
		ps.lastAck = t
		c.mu.Unlock()
		g.tr.add("fronthaul.ack", -1, int(c.id), a.Seq, -1, wrote, t)
	}
}

// drain waits until every cell has no outstanding frame, reconnecting
// and replaying where a connection was redirected meanwhile.
func (g *generator) drain() error {
	deadline := now() + opTimeout.Nanoseconds()
	for {
		pending := 0
		for _, c := range g.cells {
			c.mu.Lock()
			n := len(c.out)
			c.mu.Unlock()
			if n > 0 {
				if err := g.ensureConn(c); err != nil {
					return err
				}
			}
			pending += n
		}
		if pending == 0 {
			return nil
		}
		if now() > deadline {
			return fmt.Errorf("%d frames lost: no terminal ack within %v", pending, opTimeout)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// shutdown half-closes every connection and joins the ack readers; a
// server that does not close within the timeout is cut off.
func (g *generator) shutdown() {
	for _, c := range g.cells {
		if c.conn != nil {
			halfClose(c.conn)
			c.conn = nil
		}
	}
	done := make(chan struct{})
	go func() { g.readers.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		for _, conn := range g.conns {
			conn.Close()
		}
		<-done
	}
}

// take merges one phase's statistics across cells and resets them, so
// each round reports its own.
func (g *generator) take(ph int) phaseStats {
	var m phaseStats
	for _, c := range g.cells {
		c.mu.Lock()
		s := c.stats[ph]
		c.stats[ph] = phaseStats{}
		c.mu.Unlock()
		m.lat = append(m.lat, s.lat...)
		m.ackWait = append(m.ackWait, s.ackWait...)
		m.done += s.done
		m.shed += s.shed
		m.dup += s.dup
		if s.lastAck > m.lastAck {
			m.lastAck = s.lastAck
		}
	}
	return m
}

// fill writes the generator's own per-layer clocks; ackWait are the
// open-loop phases' write-to-ack times.
func (g *generator) fill(rep *report, wallNs int64, ackWait []int64) {
	rep.layer["gen.lag_p99_ms"] = pct(g.lags, 0.99)
	rep.layer["gen.write_p50_ms"] = pct(g.writes, 0.50)
	rep.layer["gen.write_p99_ms"] = pct(g.writes, 0.99)
	rep.layer["gen.wire_mb_s"] = ratio(float64(g.bytes)/(1<<20), float64(wallNs)/1e9)
	rep.layer["fronthaul.ack_wait_p50_ms"] = pct(ackWait, 0.50)
	rep.layer["fronthaul.ack_wait_p99_ms"] = pct(ackWait, 0.99)
}
