package main

import (
	"sync"
	"time"

	"ltephy/internal/sched"
	"ltephy/internal/uplink"
	"ltephy/internal/uplink/tx"
)

// rxSpec is a receiver-only workload: a closed loop over one cell's ring.
type rxSpec struct {
	cfg      uplink.ReceiverConfig
	snrDB    float64
	ringSize int
	maxPRB   int
	pool     bool // sched.Pool with one worker per CPU, else the serial receiver
}

// runRxPass: the serial receiver with pass-through turbo, as in the paper.
// Only the kernels run; sched, turbo and fronthaul are bypassed.
func runRxPass(o options) (*report, error) {
	return runRx(o, rxSpec{cfg: uplink.DefaultConfig(), snrDB: 25, ringSize: 512, maxPRB: 20})
}

// runRxTurbo: full turbo at code rate 0.5 through the work-stealing pool
// (window fan-out active), at an SNR where the decoder iterates.
func runRxTurbo(o options) (*report, error) {
	cfg := uplink.DefaultConfig()
	cfg.Turbo = uplink.TurboFull
	cfg.CodeRate = 0.5
	return runRx(o, rxSpec{cfg: cfg, snrDB: 15, ringSize: 512, maxPRB: 20, pool: true})
}

type rxState struct {
	ring []*uplink.Subframe
	pool *sched.Pool
}

func (s *rxState) close() {
	if s != nil && s.pool != nil {
		s.pool.Close()
	}
}

func runRx(o options, spec rxSpec) (*report, error) {
	tr := newTracer(o.Trace)
	rep := newReport(tr)
	col := &collector{}

	st, setupS, err := timedSetup(func() (*rxState, error) {
		disp := newDispatcher(o.Seed, tx.Config{Receiver: spec.cfg, SNRdB: spec.snrDB})
		ring, err := ringSubframes(disp, o.Seed, 0, spec.ringSize, spec.maxPRB)
		if err != nil {
			return nil, err
		}
		if err := warmShapes(spec.cfg, ring); err != nil {
			return nil, err
		}
		s := &rxState{ring: ring}
		if spec.pool {
			s.pool, err = sched.NewPool(sched.Config{
				Workers: workers(), Receiver: spec.cfg, OnResult: col.add,
				NapCheckPeriod: 100 * time.Microsecond, Seed: o.Seed,
			})
			if err != nil {
				return nil, err
			}
		}
		for seq := int64(0); seq < 4; seq++ { // warm the arenas
			if err := rxProcess(s, spec.cfg, subframeAt(ring, seq), col); err != nil {
				s.close()
				return nil, err
			}
		}
		return s, nil
	}, (*rxState).close)
	if err != nil {
		return nil, err
	}
	defer st.close()
	col.reset()
	rep.e2e["setup_s"] = setupS

	budget := int64(o.Seconds * 1e9)
	if o.Trace {
		budget /= 2 // the other half is the ledger
	}
	var pools []*sched.Pool
	if st.pool != nil {
		pools = append(pools, st.pool)
	}
	// Each phase walks the ring in order, so whatever the run length its
	// samples weigh every ring slot equally (+-1 visit).
	ringLen := int64(len(st.ring))
	var lat1, lat2 []int64 // every subframe's latency at 1x and at 2x
	var k1, k2 int64       // visits so far at 1x and at 2x
	var offered int64
	// seqOf gives the k-th visit of a phase a sequence number unique across
	// both phases whose ring slot (seq mod ring length) is k mod ring length.
	seqOf := func(k, phase int64) int64 { return (2*(k/ringLen)+phase)*ringLen + k%ringLen }
	visit := func(k, phase int64) *uplink.Subframe {
		sf := subframeAt(st.ring, seqOf(k, phase))
		offered += int64(len(sf.Users))
		return sf
	}

	before := poolStats(pools)
	mw := startMemWatch()
	start := now()
	rounds := perRound{}
	nr := numRounds(budget)
	for r := 0; r < nr; r++ {
		round := budget / int64(nr)
		// 1x: closed loop, one subframe in flight; its latency is the
		// processing time per subframe.
		end := now() + round/2
		for now() < end {
			sf := visit(k1, 0)
			t0 := now()
			if err := rxProcess(st, spec.cfg, sf, col); err != nil {
				return nil, err
			}
			t1 := now()
			tr.add("rx.subframe", -1, 0, sf.Seq, -1, t0, t1)
			lat1 = append(lat1, t1-t0)
			k1++
		}

		// 2x: two subframes due together; each is timed from the shared
		// due time, so the second also waits for the first.
		end = now() + round/2
		for now() < end {
			a, b := visit(k2, 1), visit(k2+1, 1)
			due := now()
			ta, tb, err := rxPair(st, spec.cfg, a, b, col)
			if err != nil {
				return nil, err
			}
			tr.add("rx.subframe.2x", -1, 0, a.Seq, -1, due, ta)
			tr.add("rx.subframe.2x", -1, 0, b.Seq, -1, due, tb)
			lat2 = append(lat2, ta-due, tb-due)
			k2 += 2
		}
		rounds.add("mem_mb", mw.roundPeak())
	}
	wall := now() - start
	allocs, gcPause := mw.finish()
	after := poolStats(pools)
	subframes := k1 + k2

	recs := col.snapshot()
	or, err := newOracle(spec.cfg, st.ring)
	if err != nil {
		return nil, err
	}
	rep.attempted = subframes
	rep.failed = verifyResults(rep, or, recs)
	decoded, pass, half := crcStats(recs)
	if decoded != offered {
		rep.fail("%d users offered, %d decoded", offered, decoded)
	}

	// The timed metrics pool every sample of the run: the ring's content
	// varies far more from one subframe to the next than from one pass
	// over the ring to the next.
	var busy1 int64
	for _, d := range lat1 {
		busy1 += d
	}
	rep.e2e["sf_per_s"] = ratio(float64(len(lat1)), float64(busy1)/1e9)
	rep.e2e["latency_p99_ms"] = pct(lat1, 0.99)
	rep.e2e["latency_p50_ms"] = pct(lat1, 0.50)
	rep.e2e["latency_p99_ms.2x"] = pct(lat2, 0.99)
	rep.e2e["latency_p50_ms.2x"] = pct(lat2, 0.50)
	rounds.into(rep.e2e)
	rep.e2e["decoded_frac"] = ratio(float64(decoded), float64(offered))
	rep.e2e["crc_pass_frac"] = ratio(float64(pass), float64(decoded))
	rep.note("samples: %d at 1x, %d at 2x over %d rounds (ring %d); %d users decoded",
		k1, k2, nr, ringLen, decoded)

	if o.Trace {
		rep.layer["turbo.half_iters_per_user"] = ratio(float64(half), float64(decoded))
		goMetrics(rep, allocs, gcPause, float64(wall), subframes)
		l := newLedger(spec.cfg, tr)
		l.run(rep, [][]*uplink.Subframe{st.ring}, budget)
		l.fill(rep)
		if st.pool != nil {
			schedMetrics(rep, before, after, st.pool.Workers(), float64(wall),
				l.serialWork(len(st.ring), recs), subframes)
		}
	}
	return rep, nil
}

// rxProcess runs one subframe to completion on the workload's receiver.
func rxProcess(s *rxState, cfg uplink.ReceiverConfig, sf *uplink.Subframe, col *collector) error {
	if s.pool != nil {
		s.pool.ProcessSubframe(sf)
		return nil
	}
	res, err := uplink.ProcessSubframe(cfg, sf)
	if err != nil {
		return err
	}
	for _, r := range res {
		col.add(r)
	}
	return nil
}

// rxPair runs two subframes offered at once and returns when each
// completed. The pool takes both at once; the serial receiver runs them
// back to back.
func rxPair(s *rxState, cfg uplink.ReceiverConfig, a, b *uplink.Subframe, col *collector) (int64, int64, error) {
	if s.pool == nil {
		if err := rxProcess(s, cfg, a, col); err != nil {
			return 0, 0, err
		}
		ta := now()
		if err := rxProcess(s, cfg, b, col); err != nil {
			return 0, 0, err
		}
		return ta, now(), nil
	}
	var wg sync.WaitGroup
	var ta, tb int64
	wg.Add(2)
	finA := sched.NewSubframeFin(func() { ta = now(); wg.Done() })
	finB := sched.NewSubframeFin(func() { tb = now(); wg.Done() })
	s.pool.SubmitSubframeFin(a, finA)
	s.pool.SubmitSubframeFin(b, finB)
	wg.Wait()
	return ta, tb, nil
}
