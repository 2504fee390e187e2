package main

import (
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"ltephy/internal/fleet"
	"ltephy/internal/fronthaul"
	"ltephy/internal/obs/kpi"
	"ltephy/internal/sched"
	"ltephy/internal/uplink"
	"ltephy/internal/uplink/tx"
)

// Serving workloads: 2 cells, each over its own connection, fed by one
// sender goroutine from a bounded ring of pre-encoded frames.
const (
	serveCells  = 2
	serveRing   = 128 // frames per cell
	serveMaxPRB = 4
	serveDelta  = 5 * time.Millisecond // lte-enb's default DELTA; 1x = 200 sf/s per cell
	warmFrames  = 8                    // per cell, sent during set-up
	opTimeout   = 30 * time.Second
)

// serveState is one set-up serving topology: the input rings, their
// encoded frames, and either a single server or a fleet.
type serveState struct {
	rings  [][]*uplink.Subframe
	frames [][][]byte
	gen    *generator

	srv      *fronthaul.Server
	ln       net.Listener
	serveErr chan error

	co       *fleet.Coordinator
	launcher *fleet.InProcLauncher
}

func (s *serveState) close() {
	if s == nil {
		return
	}
	if s.gen != nil {
		s.gen.shutdown()
	}
	if s.srv != nil {
		s.ln.Close()
		s.srv.Close()
		<-s.serveErr
	}
	if s.co != nil {
		s.co.Close()
		s.launcher.Close()
	}
}

// servers returns every server in the topology.
func (s *serveState) servers() []*fronthaul.Server {
	if s.srv != nil {
		return []*fronthaul.Server{s.srv}
	}
	var out []*fronthaul.Server
	for i := 0; ; i++ {
		w, err := s.co.Worker(i)
		if err != nil {
			return out
		}
		if h, ok := w.(interface{ Server() *fronthaul.Server }); ok {
			out = append(out, h.Server())
		}
	}
}

func (s *serveState) pools() []*sched.Pool {
	var ps []*sched.Pool
	for _, srv := range s.servers() {
		ps = append(ps, srv.Pools()...)
	}
	return ps
}

func (s *serveState) cellStats() ([]fronthaul.CellStats, error) {
	if s.co != nil {
		return s.co.Stats()
	}
	return s.srv.Stats(), nil
}

var socketSeq atomic.Int64

// runServe: an in-process server with lte-enb's defaults (KPI on, one
// pool of one worker per CPU, 5 ms DELTA) over abstract Unix sockets.
func runServe(o options) (*report, error) { return runServing(o, false) }

// runServeMigrate: the same traffic through a fleet coordinator of two
// in-process workers (one pool worker each) while cells ping-pong by live
// migration and checkpoints run alongside.
func runServeMigrate(o options) (*report, error) { return runServing(o, true) }

func runServing(o options, migrate bool) (*report, error) {
	tr := newTracer(o.Trace)
	rep := newReport(tr)
	col := &collector{}
	rc := uplink.DefaultConfig()

	st, setupS, err := timedSetup(func() (*serveState, error) {
		col.reset()
		s, err := buildServing(o, rc, col, migrate, tr)
		if err != nil {
			return nil, err
		}
		// Warm-up over the wire: fills arenas, slots and socket buffers.
		if err := s.gen.warm(warmFrames); err != nil {
			s.close()
			return nil, err
		}
		return s, nil
	}, (*serveState).close)
	if err != nil {
		return nil, err
	}
	defer st.close()
	rep.e2e["setup_s"] = setupS
	g := st.gen

	budget := int64(o.Seconds * 1e9)
	if o.Trace {
		budget /= 2
	}
	pools := st.pools()
	before := poolStats(pools)
	recStart := len(col.snapshot())
	mw := startMemWatch()
	start := now()

	var fc *fleetControl
	if migrate {
		fc = startFleetControl(st.co, tr, g)
	}
	rounds := perRound{}
	var ackWait []int64
	var n1, n2, nSat int64
	interval := serveDelta.Nanoseconds()
	nr := numRounds(budget)
	for r := 0; r < nr && err == nil; r++ {
		round := budget / int64(nr)
		if err = g.openLoop(phase1x, interval, round*4/10); err != nil {
			break
		}
		p1 := g.take(phase1x)
		if err = g.openLoop(phase2x, interval/2, round*3/10); err != nil {
			break
		}
		p2 := g.take(phase2x)
		var satStart int64
		if satStart, err = g.saturateFor(phaseSat, round*3/10); err != nil {
			break
		}
		ps := g.take(phaseSat)
		rounds.add("sf_per_s", ratio(float64(ps.done), float64(ps.lastAck-satStart)/1e9)/serveCells)
		n1, n2, nSat = n1+int64(len(p1.lat)), n2+int64(len(p2.lat)), nSat+ps.done
		ackWait = append(append(ackWait, p1.ackWait...), p2.ackWait...)
		rounds.add("latency_p99_ms", pct(p1.lat, 0.99))
		rounds.add("latency_p50_ms", pct(p1.lat, 0.50))
		rounds.add("latency_p99_ms.2x", pct(p2.lat, 0.99))
		rounds.add("latency_p50_ms.2x", pct(p2.lat, 0.50))
		rounds.add("mem_mb", mw.roundPeak())
	}
	if fc != nil {
		fc.stop()
	}
	wall := now() - start
	allocs, gcPause := mw.finish()
	after := poolStats(pools)
	if err != nil {
		return nil, err
	}
	g.shutdown()

	recs := col.snapshot()
	or, err := newOracle(rc, st.rings...)
	if err != nil {
		return nil, err
	}
	rep.failed = verifyResults(rep, or, recs)
	var offered int64
	for _, c := range g.cells {
		rep.attempted += c.nextSeq
		offered += c.offeredUsers
	}
	reconcileKPI(rep, st, g, recs)
	if n := g.badAcks.Load(); n > 0 {
		rep.fail("%d acks failed to parse or named the wrong cell", n)
	}
	if fc != nil {
		for _, e := range fc.errs {
			rep.fail("fleet: %v", e)
		}
	}

	decoded, pass, half := crcStats(recs)
	rounds.into(rep.e2e)
	rep.e2e["decoded_frac"] = ratio(float64(decoded), float64(offered))
	rep.e2e["crc_pass_frac"] = ratio(float64(pass), float64(decoded))
	rep.note("samples: %d at 1x, %d at 2x, %d saturated over %d rounds; frames offered %d, users offered %d, decoded %d",
		n1, n2, nSat, nr, rep.attempted, offered, decoded)

	if o.Trace {
		timed := recs[recStart:]
		rep.layer["turbo.half_iters_per_user"] = ratio(float64(half), float64(decoded))
		goMetrics(rep, allocs, gcPause, float64(wall), rep.attempted)
		g.fill(rep, wall, ackWait)
		if err := serverMetrics(rep, st, pools); err != nil {
			return nil, err
		}
		if fc != nil {
			fc.fill(rep, g)
		}
		frontReplay(rep, st, tr, budget/4)
		l := newLedger(rc, tr)
		l.run(rep, st.rings, budget*3/4)
		l.fill(rep)
		workersTotal := 0
		for _, p := range pools {
			workersTotal += p.Workers()
		}
		schedMetrics(rep, before, after, workersTotal, float64(wall),
			l.serialWork(serveRing, timed), countSubframes(timed))
	}
	return rep, nil
}

// countSubframes counts distinct (cell, seq) among results.
func countSubframes(recs []record) int64 {
	seen := map[[2]int64]bool{}
	for _, r := range recs {
		seen[[2]int64{int64(r.key.cell), r.key.seq}] = true
	}
	return int64(len(seen))
}

// buildServing synthesises the rings, encodes the frames and starts the
// topology and the generator.
func buildServing(o options, rc uplink.ReceiverConfig, col *collector, migrate bool, tr *tracer) (*serveState, error) {
	disp := newDispatcher(o.Seed, tx.Config{Receiver: rc, SNRdB: 25})
	s := &serveState{}
	for c := 0; c < serveCells; c++ {
		ring, err := ringSubframes(disp, o.Seed, c, serveRing, serveMaxPRB)
		if err != nil {
			return nil, err
		}
		frames := make([][]byte, len(ring))
		for i, sf := range ring {
			if frames[i], err = fronthaul.AppendFrame(nil, uint16(c), int64(i), frameUsers(sf)); err != nil {
				return nil, err
			}
		}
		s.rings = append(s.rings, ring)
		s.frames = append(s.frames, frames)
	}
	if err := warmShapes(rc, s.rings...); err != nil {
		return nil, err
	}
	srvCfg := fronthaul.Config{
		Cells: serveCells, Pools: 1, Workers: workers(), Receiver: rc,
		Delta: serveDelta, KPISampling: 1, Seed: o.Seed, OnResult: col.add,
	}
	var resolve func(int) (string, string, int64, error)
	if migrate {
		srvCfg.Workers = 1
		s.launcher = &fleet.InProcLauncher{Cfg: fleet.InProcConfig{Server: srvCfg, Cells: serveCells}}
		co, err := fleet.New(fleet.Config{Workers: 2, Cells: serveCells, Launcher: s.launcher})
		if err != nil {
			s.launcher.Close()
			return nil, err
		}
		s.co = co
		resolve = co.Resolve
	} else {
		srv, err := fronthaul.NewServer(srvCfg)
		if err != nil {
			return nil, err
		}
		addr := fmt.Sprintf("@ltebench-%d-%d", os.Getpid(), socketSeq.Add(1))
		ln, err := net.Listen("unix", addr)
		if err != nil {
			srv.Close()
			return nil, err
		}
		s.srv, s.ln, s.serveErr = srv, ln, make(chan error, 1)
		go func() { s.serveErr <- srv.Serve(ln) }()
		resolve = func(int) (string, string, int64, error) { return "unix", addr, 0, nil }
	}
	s.gen = newGenerator(s.rings, s.frames, resolve, tr)
	return s, nil
}

// frameUsers wraps a subframe's users for the codec; earlier slots get
// higher admission priority (the loopback generator's default).
func frameUsers(sf *uplink.Subframe) []fronthaul.FrameUser {
	users := make([]fronthaul.FrameUser, len(sf.Users))
	for i, u := range sf.Users {
		users[i] = fronthaul.FrameUser{Data: u, Priority: uint8(255 - i)}
	}
	return users
}

// reconcileKPI checks the servers' KPI ledger against what was offered
// and decoded: per cell, CrcPass+CrcFail+Dtx+Skipped equals the users
// offered, and CrcPass/CrcFail equal the results delivered.
func reconcileKPI(rep *report, st *serveState, g *generator, recs []record) {
	var pass, fail [serveCells]int64
	for _, r := range recs {
		if r.out.crc {
			pass[r.key.cell]++
		} else {
			fail[r.key.cell]++
		}
	}
	for c := 0; c < serveCells; c++ {
		var k kpi.Counters
		for _, srv := range st.servers() {
			x := srv.KPI().ExportCell(c).Cell
			k.CrcPass += x.CrcPass
			k.CrcFail += x.CrcFail
			k.Dtx += x.Dtx
			k.Skipped += x.Skipped
		}
		offered := g.cells[c].offeredUsers
		if total := k.CrcPass + k.CrcFail + k.Dtx + k.Skipped; total != offered {
			rep.fail("cell %d: KPI counts %d users (pass %d fail %d dtx %d skipped %d), %d were offered",
				c, total, k.CrcPass, k.CrcFail, k.Dtx, k.Skipped, offered)
		}
		if k.CrcPass != pass[c] || k.CrcFail != fail[c] {
			rep.fail("cell %d: KPI pass/fail %d/%d, results delivered %d/%d", c, k.CrcPass, k.CrcFail, pass[c], fail[c])
		}
	}
}

// serverMetrics reads the servers' own counters: deadline misses, shed
// frames, rejected users, and the admission prediction against the
// measured busy activity (the live Fig. 12 ratio).
func serverMetrics(rep *report, st *serveState, pools []*sched.Pool) error {
	stats, err := st.cellStats()
	if err != nil {
		return err
	}
	var met, missed, shed, rejected int64
	var admittedEst float64
	for _, s := range stats {
		met += s.DeadlineMet
		missed += s.DeadlineMissed
		shed += s.FramesShed()
		rejected += s.UsersRejected
		admittedEst += s.AdmittedEst
	}
	// AdmittedEst is in pool-periods (1.0 = a whole pool for one DELTA).
	var measured float64
	for _, p := range pools {
		var busy int64
		for _, w := range p.Stats() {
			busy += w.BusyNanos
		}
		measured += float64(busy) / (float64(p.Workers()) * float64(serveDelta.Nanoseconds()))
	}
	rep.layer["fronthaul.deadline_miss_frac"] = ratio(float64(missed), float64(met+missed))
	rep.layer["fronthaul.frames_shed"] = float64(shed)
	rep.layer["fronthaul.users_rejected"] = float64(rejected)
	rep.layer["admission.pred_over_meas"] = ratio(admittedEst, measured)
	return nil
}

// frontReplay times the fronthaul codec and admission on the ring frames
// from outside the server: ParseHeader+VerifyPayload+ParseUsers (the
// public part of ingest decode), AppendFrame, and Admission.Decide with
// the server's own predictor. Each call is labelled replay.*.
func frontReplay(rep *report, st *serveState, tr *tracer, budgetNs int64) {
	pred := st.servers()[0].Config().Predictor
	var recs [fronthaul.MaxUsersPerFrame]fronthaul.UserRecord
	var est []float64
	var prio []uint8
	var admit []bool
	var buf []byte
	adm := fronthaul.Admission{Capacity: 1, Burst: 2}
	var dec, enc, dcd, n int64
	end := now() + budgetNs
	for seq := int64(0); now() < end || n < 16; seq++ {
		c := int(seq % serveCells)
		slot := int(seq / serveCells % serveRing)
		f := st.frames[c][slot]
		sf := st.rings[c][slot]

		t := now()
		h, err := fronthaul.ParseHeader((*[fronthaul.FrameHeaderLen]byte)(f), fronthaul.MaxUsersPerFrame, fronthaul.DefaultMaxPayload)
		if err == nil {
			payload := f[fronthaul.FrameHeaderLen : fronthaul.FrameHeaderLen+int(h.PayloadLen)]
			err = fronthaul.VerifyPayload(payload, (*[fronthaul.TrailerLen]byte)(f[fronthaul.FrameHeaderLen+int(h.PayloadLen):]))
			if err == nil {
				var k int
				k, err = fronthaul.ParseUsers(h, payload, &recs)
				if err == nil && k != len(sf.Users) {
					err = fmt.Errorf("parsed %d users, encoded %d", k, len(sf.Users))
				}
			}
		}
		e := now()
		if err != nil {
			rep.fail("fronthaul replay: cell %d slot %d: %v", c, slot, err)
			return
		}
		tr.add("replay.fronthaul.decode", -1, c, seq, -1, t, e)
		dec += e - t

		users := frameUsers(sf)
		t = now()
		buf, err = fronthaul.AppendFrame(buf[:0], uint16(c), h.Seq, users)
		e = now()
		if err != nil {
			rep.fail("fronthaul replay: encode: %v", err)
			return
		}
		tr.add("replay.fronthaul.encode", -1, c, seq, -1, t, e)
		enc += e - t

		est, prio, admit = est[:0], prio[:0], admit[:0]
		for _, u := range users {
			est = append(est, pred.EstimateUser(u.Data.Params))
			prio = append(prio, u.Priority)
			admit = append(admit, false)
		}
		t = now()
		adm.Decide(seq, est, prio, admit)
		e = now()
		tr.add("replay.admission.decide", -1, c, seq, -1, t, e)
		dcd += e - t
		n++
	}
	rep.layer["fronthaul.decode_us"] = ratio(float64(dec), float64(n)) / 1e3
	rep.layer["fronthaul.encode_us"] = ratio(float64(enc), float64(n)) / 1e3
	rep.layer["admission.decide_us"] = ratio(float64(dcd), float64(n)) / 1e3
}

// fleetControl ping-pongs cells between the two workers by live
// migration while checkpoints run alongside, timing each call.
//
// The generator kicks one swap halfway through every timed phase, so
// each phase (and each round) carries the same migration work. A swap
// moves both cells back to back: they share one worker only for the
// length of one migration, the offered load per worker stays the same,
// and the run measures the cost of moving cells rather than when the
// moves happened to co-locate them.
type fleetControl struct {
	co                *fleet.Coordinator
	tr                *tracer
	kick, quit        chan struct{}
	wg                sync.WaitGroup
	mu                sync.Mutex
	migrateNs, ckptNs []int64
	snapBytes         []int
	errs              []error
}

const checkpointEvery = 100 * time.Millisecond

func startFleetControl(co *fleet.Coordinator, tr *tracer, g *generator) *fleetControl {
	fc := &fleetControl{co: co, tr: tr, kick: make(chan struct{}, 1), quit: make(chan struct{})}
	g.onKick = func() {
		select {
		case fc.kick <- struct{}{}:
		default: // the previous swap is still running
		}
	}
	fc.wg.Add(2)
	go func() {
		defer fc.wg.Done()
		for {
			select {
			case <-fc.quit:
				return
			case <-fc.kick:
				for cell := 0; cell < serveCells; cell++ {
					fc.migrate(cell)
				}
			}
		}
	}()
	go func() {
		defer fc.wg.Done()
		t := time.NewTicker(checkpointEvery)
		defer t.Stop()
		for i := 0; ; i++ {
			select {
			case <-fc.quit:
				return
			case <-t.C:
				fc.checkpoint(i % serveCells)
			}
		}
	}()
	return fc
}

func (fc *fleetControl) migrate(cell int) {
	to := 1 - fc.co.Placement().Owner[cell]
	t := now()
	err := fc.co.Migrate(cell, to)
	e := now()
	fc.tr.add("fleet.Migrate", -1, cell, -1, -1, t, e)
	fc.mu.Lock()
	defer fc.mu.Unlock()
	if err != nil {
		fc.errs = append(fc.errs, err)
		return
	}
	fc.migrateNs = append(fc.migrateNs, e-t)
}

func (fc *fleetControl) checkpoint(cell int) {
	t := now()
	err := fc.co.CheckpointCell(cell)
	e := now()
	fc.tr.add("fleet.CheckpointCell", -1, cell, -1, -1, t, e)
	fc.mu.Lock()
	defer fc.mu.Unlock()
	if err != nil {
		fc.errs = append(fc.errs, err)
		return
	}
	fc.ckptNs = append(fc.ckptNs, e-t)
	fc.snapBytes = append(fc.snapBytes, len(fc.co.Snapshot(cell)))
}

func (fc *fleetControl) stop() {
	close(fc.quit)
	fc.wg.Wait()
}

func (fc *fleetControl) fill(rep *report, g *generator) {
	rep.layer["fleet.migrate_ms.p50"] = pct(fc.migrateNs, 0.50)
	rep.layer["fleet.migrate_ms.max"] = pct(fc.migrateNs, 1)
	rep.layer["fleet.checkpoint_ms.p50"] = pct(fc.ckptNs, 0.50)
	var snap float64
	for _, b := range fc.snapBytes {
		snap += float64(b)
	}
	rep.layer["fleet.snapshot_kb"] = ratio(snap, float64(len(fc.snapBytes))) / 1024
	rep.layer["fleet.redirects"] = float64(g.redirects.Load())
	rep.layer["fleet.replays"] = float64(g.replays)
	rep.note("fleet: %d migrations, %d checkpoints", len(fc.migrateNs), len(fc.ckptNs))
}
