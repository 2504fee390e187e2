package fronthaul

import (
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ltephy/internal/obs"
	"ltephy/internal/params"
	"ltephy/internal/rng"
	"ltephy/internal/sched"
	"ltephy/internal/uplink"
	"ltephy/internal/uplink/tx"
)

// GenConfig configures the loopback load generator: one connection per
// cell replaying the paper's Fig. 6 parameter model as wire frames at a
// configurable rate and offered-load multiplier.
type GenConfig struct {
	// Network and Addr locate the server ("tcp"/"unix").
	Network, Addr string
	// Cells is the number of cells to drive (cell indices 0..Cells-1).
	Cells int
	// Subframes is the frame count sent per cell.
	Subframes int
	// Interval is the wall-clock gap between frames per cell: Delta for
	// real-time replay, Delta/2 for 2x real-time, 0 for as fast as the
	// transport allows. (Admission runs in virtual sequence time, so the
	// rate pressures deadlines and transport, not shedding.)
	Interval time.Duration
	// Load multiplies the offered work per subframe: each frame
	// concatenates ~Load parameter-model draws (fractions alternate), so
	// Load 4 offers four subframes' worth of users per period.
	Load float64
	// Seed drives the parameter model (per cell: Seed+cell) and signal
	// synthesis.
	Seed uint64
	// MaxPRB clamps per-user PRBs (0 = no clamp), scaling DSP to host
	// speed exactly like lte-bench does.
	MaxPRB int
	// MaxUsers caps the users per frame after load concatenation.
	// Defaults to MaxUsersPerFrame.
	MaxUsers int
	// DTXProb flags each offered user DTX (scheduled-but-absent) with
	// this probability, exercising the receiver's DTX accounting. Drawn
	// from a per-cell rng stream so runs are reproducible.
	DTXProb float64
	// TX configures signal synthesis; TX.Receiver must match the server's
	// receiver (antenna count).
	TX tx.Config
	// CacheSets is the input-data realisation rotation (sched.Dispatcher
	// semantics). Defaults to 4.
	CacheSets int
	// Priority assigns each user's admission priority. Nil defaults to
	// "earlier slot = higher priority", which makes overload degradation
	// deterministic and observable.
	Priority func(cellID uint16, seq int64, slot int) uint8
	// Timeout bounds the wait for the final acks after the last frame is
	// sent. Defaults to 60s.
	Timeout time.Duration
}

// GenStats aggregates the generator's view of a loopback run. Every sent
// frame is accounted for by exactly one ack, so Acked == Sent and
// BadAcks == 0 together certify zero frame corruption end to end.
type GenStats struct {
	Sent, Acked                                    int64
	Done, ShedLate, ShedOverload, ShedBackpressure int64
	// Duplicate counts replay acks (AckDuplicate) and Redirected counts
	// drain/migration acks (AckRedirect) — both normal under fleet
	// operation, both zero in a plain loopback run.
	Duplicate, Redirected    int64
	UsersSent, UsersAccepted int64
	// UsersDTX counts users the generator flagged DTX (a subset of
	// UsersSent).
	UsersDTX int64
	// BadAcks counts acks that failed to parse or referenced an unknown
	// sequence number.
	BadAcks int64
	// P50/P90/P99/P999/Max are percentiles of the send-to-done-ack latency
	// of completed subframes (P999 = p99.9, the fleet harness's tail
	// metric).
	P50, P90, P99, P999, Max time.Duration
}

// ShedFrames sums the shed dispositions.
func (g GenStats) ShedFrames() int64 { return g.ShedLate + g.ShedOverload + g.ShedBackpressure }

// String renders the stats in the machine-greppable key=value form the
// serve-smoke CI job asserts on.
func (g GenStats) String() string {
	return fmt.Sprintf(
		"sent=%d acked=%d done=%d shed_late=%d shed_overload=%d shed_backpressure=%d "+
			"duplicate=%d redirected=%d "+
			"users_sent=%d users_accepted=%d users_dtx=%d corrupt=%d "+
			"p50=%v p90=%v p99=%v p999=%v max=%v",
		g.Sent, g.Acked, g.Done, g.ShedLate, g.ShedOverload, g.ShedBackpressure,
		g.Duplicate, g.Redirected,
		g.UsersSent, g.UsersAccepted, g.UsersDTX, g.BadAcks,
		g.P50, g.P90, g.P99, g.P999, g.Max)
}

// cellGen is one cell's generator state. The sender goroutine writes
// Sent/UsersSent and sendNs; the ack-reader goroutine writes the rest.
// sendNs entries are atomics because the only ordering between a send
// and its ack is the network round-trip, which the race detector cannot
// see through.
type cellGen struct {
	cfg       GenConfig
	cellID    uint16
	disp      *sched.Dispatcher
	stats     GenStats
	latencies []int64
	sendNs    []atomic.Int64
	err       error
}

// RunLoopback drives the server at cfg.Addr with one connection per cell
// and returns the aggregated stats. The first per-cell error aborts the
// aggregate (partial stats are still returned).
//
// Spawns one generator goroutine per cell, bracketed by wg.Add before
// the spawn and a deferred Done; wg.Wait joins them all before stats
// are aggregated.
//
//ltephy:spawn-point
func RunLoopback(cfg GenConfig) (GenStats, error) {
	if cfg.Cells <= 0 {
		cfg.Cells = 1
	}
	if cfg.Subframes <= 0 {
		cfg.Subframes = 1
	}
	if cfg.Load <= 0 {
		cfg.Load = 1
	}
	if cfg.MaxUsers <= 0 || cfg.MaxUsers > MaxUsersPerFrame {
		cfg.MaxUsers = MaxUsersPerFrame
	}
	if cfg.CacheSets <= 0 {
		cfg.CacheSets = 4
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 60 * time.Second
	}
	if cfg.Priority == nil {
		cfg.Priority = func(_ uint16, _ int64, slot int) uint8 {
			if slot >= 255 {
				return 0
			}
			return uint8(255 - slot)
		}
	}
	if cfg.TX.Receiver.Antennas == 0 {
		cfg.TX = tx.DefaultConfig()
	}

	// One shared dispatcher: the input-data cache is keyed by parameters
	// and set index, so cells reuse realisations instead of regenerating.
	disp := sched.NewDispatcher(sched.DispatcherConfig{
		Delta:     time.Millisecond,
		TX:        cfg.TX,
		CacheSets: cfg.CacheSets,
		Seed:      cfg.Seed,
	})

	gens := make([]*cellGen, cfg.Cells)
	var wg sync.WaitGroup
	for c := range gens {
		g := &cellGen{
			cfg:    cfg,
			cellID: uint16(c),
			disp:   disp,
			sendNs: make([]atomic.Int64, cfg.Subframes),
		}
		gens[c] = g
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.err = g.run()
		}()
	}
	wg.Wait()

	var total GenStats
	var lats []int64
	var firstErr error
	for _, g := range gens {
		total.Sent += g.stats.Sent
		total.Acked += g.stats.Acked
		total.Done += g.stats.Done
		total.ShedLate += g.stats.ShedLate
		total.ShedOverload += g.stats.ShedOverload
		total.ShedBackpressure += g.stats.ShedBackpressure
		total.Duplicate += g.stats.Duplicate
		total.Redirected += g.stats.Redirected
		total.UsersSent += g.stats.UsersSent
		total.UsersAccepted += g.stats.UsersAccepted
		total.UsersDTX += g.stats.UsersDTX
		total.BadAcks += g.stats.BadAcks
		lats = append(lats, g.latencies...)
		if g.err != nil && firstErr == nil {
			firstErr = fmt.Errorf("cell %d: %w", g.cellID, g.err)
		}
	}
	total.P50, total.P90, total.P99, total.P999, total.Max = Percentiles(lats)
	return total, firstErr
}

// run sends this cell's frames and consumes acks concurrently. The ack
// reader's result is joined on ackDone on every exit path (error,
// drain, timeout) before run returns.
//
//ltephy:spawn-point
func (g *cellGen) run() error {
	conn, err := net.Dial(g.cfg.Network, g.cfg.Addr)
	if err != nil {
		return err
	}
	defer conn.Close()

	ackDone := make(chan error, 1)
	go func() { ackDone <- g.readAcks(conn) }()

	if err := g.send(conn); err != nil {
		// Kill the connection and wait for the reader so no goroutine
		// touches this cell's stats after run returns.
		conn.Close()
		<-ackDone
		return err
	}
	// Half-close where the transport supports it so the server sees EOF
	// while acks are still draining back.
	if cw, ok := conn.(interface{ CloseWrite() error }); ok {
		_ = cw.CloseWrite()
	}
	select {
	case err := <-ackDone:
		return err
	case <-time.After(g.cfg.Timeout):
		conn.Close()
		<-ackDone
		return fmt.Errorf("fronthaul: timed out after %v waiting for acks (%d/%d)",
			g.cfg.Timeout, g.stats.Acked, g.stats.Sent)
	}
}

// send writes this cell's frames at the configured interval.
func (g *cellGen) send(conn net.Conn) error {
	model := params.NewRandom(g.cfg.Seed + uint64(g.cellID))
	var dtxRng *rng.RNG
	if g.cfg.DTXProb > 0 {
		dtxRng = rng.New(g.cfg.Seed + uint64(g.cellID)*7919)
	}
	var buf []byte
	var users []FrameUser
	var ps []uplink.UserParams
	loadAcc := 0.0
	var ticker *time.Ticker
	if g.cfg.Interval > 0 {
		ticker = time.NewTicker(g.cfg.Interval)
		defer ticker.Stop()
	}
	for seq := int64(0); seq < int64(g.cfg.Subframes); seq++ {
		// Concatenate ~Load parameter draws into one offered subframe.
		draws := int(g.cfg.Load)
		loadAcc += g.cfg.Load - float64(draws)
		if loadAcc >= 1 {
			draws++
			loadAcc--
		}
		if draws < 1 {
			draws = 1
		}
		ps = ps[:0]
		for d := 0; d < draws; d++ {
			for _, p := range model.Next() {
				if g.cfg.MaxPRB > 0 && p.PRB > g.cfg.MaxPRB {
					p.PRB = g.cfg.MaxPRB
				}
				if len(ps) < g.cfg.MaxUsers {
					ps = append(ps, p)
				}
			}
		}
		for i := range ps {
			ps[i].ID = i
		}
		sf, err := g.disp.Subframe(seq, ps)
		if err != nil {
			return err
		}
		users = users[:0]
		for slot, u := range sf.Users {
			fu := FrameUser{Data: u, Priority: g.cfg.Priority(g.cellID, seq, slot)}
			if dtxRng != nil && dtxRng.Float64() < g.cfg.DTXProb {
				fu.DTX = true
				g.stats.UsersDTX++
			}
			users = append(users, fu)
		}
		buf, err = AppendFrame(buf[:0], g.cellID, seq, users)
		if err != nil {
			return err
		}
		g.sendNs[seq].Store(obs.Nanotime())
		if _, err := conn.Write(buf); err != nil {
			return err
		}
		g.stats.Sent++
		g.stats.UsersSent += int64(len(users))
		if ticker != nil {
			<-ticker.C
		}
	}
	return nil
}

// readAcks consumes acks until every sent frame is accounted for.
func (g *cellGen) readAcks(conn net.Conn) error {
	var buf [AckLen]byte
	for int(g.stats.Acked) < g.cfg.Subframes {
		if _, err := io.ReadFull(conn, buf[:]); err != nil {
			return fmt.Errorf("fronthaul: ack stream ended early (%d/%d acks): %w",
				g.stats.Acked, g.cfg.Subframes, err)
		}
		a, err := ParseAck(&buf)
		if err != nil || a.Cell != g.cellID || a.Seq < 0 || a.Seq >= int64(len(g.sendNs)) {
			g.stats.BadAcks++
			g.stats.Acked++
			continue
		}
		g.stats.Acked++
		switch a.Status {
		case AckDone:
			g.stats.Done++
			g.stats.UsersAccepted += int64(a.UsersAccepted)
			g.latencies = append(g.latencies, obs.Nanotime()-g.sendNs[a.Seq].Load())
		case AckShedLate:
			g.stats.ShedLate++
		case AckShedOverload:
			g.stats.ShedOverload++
		case AckShedBackpressure:
			g.stats.ShedBackpressure++
		case AckDuplicate:
			g.stats.Duplicate++
		case AckRedirect:
			g.stats.Redirected++
		}
	}
	return nil
}

// Percentiles returns the p50/p90/p99/p99.9/max of the given latencies
// (nanoseconds), sorting lats in place. The loopback generator and the
// fleet harness both report their latency tails through it.
func Percentiles(lats []int64) (p50, p90, p99, p999, max time.Duration) {
	if len(lats) == 0 {
		return 0, 0, 0, 0, 0
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	at := func(q float64) time.Duration {
		i := int(q * float64(len(lats)-1))
		return time.Duration(lats[i])
	}
	return at(0.50), at(0.90), at(0.99), at(0.999), time.Duration(lats[len(lats)-1])
}
