package main

import (
	"fmt"
	"math"

	"ltephy/internal/cost"
	"ltephy/internal/phy/modulation"
	"ltephy/internal/phy/workspace"
	"ltephy/internal/rng"
	"ltephy/internal/uplink"
)

// Ledger rows: the receiver layers whose self times must add up to the
// serial subframe time.
const (
	lInit = iota
	lChanEst
	lWeights
	lCombine
	lBackend
	nLedger
)

var ledgerNames = [nLedger]string{"init", "chanest", "weights", "combine", "backend"}

// ledger is the traced decomposition of the receiver: it drives each
// user through the public stage API (UserJob.Init, then every Stage's
// RunBatch or Run in Stages() order — the same calls the serial receiver
// makes) with a span around each call, and compares the result with an
// untraced uplink.ProcessSubframe of the same subframe. Demap, EVM and
// transport-block decode run inside the backend stage and cannot be
// timed from outside it, so they are replayed after the user completes
// (spans named replay.*): Demap and EVM on a noisy constellation vector
// of the user's size and scheme, the decode on the job's own soft bits.
//
// A stage span has no children, so its self time is its duration; the
// user span's self time is the driver's glue between stages.
type ledger struct {
	cfg   uplink.ReceiverConfig
	tr    *tracer
	ws    *workspace.Arena
	job   uplink.UserJob
	model cost.Model

	self               [nLedger]int64 // self ns per ledger row
	pred               [4]float64     // cost.Model cycles per stage
	demap, evm, decode int64
	bits               int64 // payload bits decoded
	untraced, traced   int64
	subframes, users   int64
	serialNs           map[[3]int]int64 // (cell, slot, user) -> traced user time
	soft, llr          []float64
	dec                []uint8
	syms               map[modulation.Scheme][]complex128
	symRng             *rng.RNG
}

func newLedger(cfg uplink.ReceiverConfig, tr *tracer) *ledger {
	return &ledger{
		cfg: cfg, tr: tr, ws: workspace.New(), model: cost.Default(),
		serialNs: map[[3]int]int64{}, syms: map[modulation.Scheme][]complex128{},
		symRng: rng.New(7),
	}
}

// run decomposes ring subframes (slot-major across cells) until budgetNs
// has passed or every slot was visited twice.
func (l *ledger) run(rep *report, rings [][]*uplink.Subframe, budgetNs int64) {
	end := now() + budgetNs
	for pass := 0; pass < 2; pass++ {
		for slot := 0; slot < len(rings[0]); slot++ {
			for cell, ring := range rings {
				if slot >= len(ring) {
					continue
				}
				if err := l.subframe(rep, cell, slot, ring[slot]); err != nil {
					rep.fail("ledger: cell %d slot %d: %v", cell, slot, err)
					return
				}
				if now() > end && l.subframes >= 8 {
					return
				}
			}
		}
	}
}

func (l *ledger) subframe(rep *report, cell, slot int, sf *uplink.Subframe) error {
	t0 := now()
	res, err := uplink.ProcessSubframe(l.cfg, sf)
	l.untraced += now() - t0
	if err != nil {
		return err
	}
	sfID := l.tr.open("ledger.subframe", -1, cell, sf.Seq, -1)
	defer l.tr.close(sfID)
	for i, u := range sf.Users {
		m := l.ws.Mark()
		uID := l.tr.open("uplink.user", sfID, cell, sf.Seq, i)
		us := now()
		t := now()
		if err := l.job.Init(l.ws, l.cfg, u); err != nil {
			l.ws.Release(m)
			return err
		}
		e := now()
		l.tr.add("uplink.init", uID, cell, sf.Seq, i, t, e)
		l.self[lInit] += e - t
		for si, st := range l.job.Stages() {
			t = now()
			n := st.Tasks(&l.job)
			if bs, ok := st.(uplink.BatchStage); ok {
				bs.RunBatch(l.ws, &l.job, 0, n)
			} else {
				for k := 0; k < n; k++ {
					st.Run(l.ws, &l.job, k)
				}
			}
			e = now()
			l.tr.add("uplink."+ledgerNames[si+1], uID, cell, sf.Seq, i, t, e)
			l.self[si+1] += e - t
		}
		ue := now()
		l.tr.close(uID)
		l.traced += ue - us
		l.serialNs[[3]int{cell, slot, i}] = ue - us

		r := l.job.Result()
		r.Seq, r.Cell = sf.Seq, sf.Cell
		if !r.Equal(res[i]) {
			rep.fail("ledger: cell %d slot %d user %d: stage-by-stage result differs from ProcessSubframe", cell, slot, i)
		}
		l.replay(rep, sfID, cell, sf.Seq, i, u, r)
		l.price(u.Params, r)
		l.bits += int64(l.job.Format().PayloadBits)
		l.users++
		l.ws.Release(m)
	}
	l.subframes++
	return nil
}

// replay times Demap, EVM and the transport-block decode on the user's
// shapes, outside the user's span.
func (l *ledger) replay(rep *report, parent int32, cell int, seq int64, user int, u *uplink.UserData, r uplink.UserResult) {
	f := l.job.Format()
	// The soft bits live in released arena scratch; copy them before the
	// decoder carves its own scratch from the same arena.
	l.soft = append(l.soft[:0], l.job.SoftBits()...)
	syms := l.symbols(u.Params.Mod, f.Symbols)
	nv := math.Max(u.NoiseVar, 1e-9)

	t := now()
	l.llr = u.Params.Mod.Demap(l.llr[:0], syms, nv)
	e := now()
	l.tr.add("replay.modulation.demap", parent, cell, seq, user, t, e)
	l.demap += e - t

	t = now()
	_ = u.Params.Mod.EVM(syms)
	e = now()
	l.tr.add("replay.modulation.evm", parent, cell, seq, user, t, e)
	l.evm += e - t

	t = now()
	payload, ok, _ := f.DecodeTransportBlockParams(l.dec[:0], l.ws, l.soft, l.cfg.DecodeParams())
	e = now()
	l.tr.add("replay.uplink.decode", parent, cell, seq, user, t, e)
	l.decode += e - t
	if ok != r.CRCOK || !equalBits(payload, r.Bits) {
		rep.fail("ledger: cell %d seq %d user %d: replayed decode differs from the receiver's", cell, seq, user)
	}
	l.dec = payload
}

// symbols returns n noisy constellation points of the scheme (unit-power
// points plus complex noise at 20 dB), generated once per scheme.
func (l *ledger) symbols(mod modulation.Scheme, n int) []complex128 {
	buf := l.syms[mod]
	if len(buf) < n {
		pts := mod.Constellation()
		for len(buf) < n {
			buf = append(buf, pts[l.symRng.Intn(len(pts))]+l.symRng.ComplexNormal(0.01))
		}
		l.syms[mod] = buf
	}
	return buf[:n]
}

// price adds the cost model's cycles for the user's four stages, with
// turbo priced at the realized half-iterations.
func (l *ledger) price(p uplink.UserParams, r uplink.UserResult) {
	m := l.model
	if l.cfg.Turbo == uplink.TurboFull {
		m.TurboFull = true
		m.TurboIterations = l.cfg.TurboIterations
		if r.TurboHalfIters > 0 {
			m.TurboHalfIters = float64(r.TurboHalfIters)
		}
	}
	n, a, ly := p.Subcarriers(), l.cfg.Antennas, p.Layers
	l.pred[0] += float64(a*ly) * m.ChanEstTask(n)
	l.pred[1] += m.WeightsTask(n, a, ly)
	l.pred[2] += float64(uplink.DataSymbolsPerSubframe*ly) * m.DataTask(n, a)
	l.pred[3] += m.BackendTask(n, ly, p.Mod)
}

// meanSerialNs is the mean traced user time, the fallback for users the
// ledger did not visit.
func (l *ledger) meanSerialNs() float64 {
	return ratio(float64(l.traced), float64(l.users))
}

// serialWork sums the serial receiver time of the given results.
func (l *ledger) serialWork(ringLen int, recs []record) float64 {
	mean := l.meanSerialNs()
	var total float64
	for _, rc := range recs {
		k := [3]int{int(rc.key.cell), int(rc.key.seq % int64(ringLen)), int(rc.key.user)}
		if ns, ok := l.serialNs[k]; ok {
			total += float64(ns)
		} else {
			total += mean
		}
	}
	return total
}

// fill writes the receiver per-layer metrics and the cost cross-check.
func (l *ledger) fill(rep *report) {
	sfs := float64(l.subframes)
	bits := float64(l.bits)
	var cover int64
	for i, name := range ledgerNames {
		rep.layer["uplink."+name+".self_ms"] = ratio(float64(l.self[i]), sfs) / 1e6
		rep.layer["uplink."+name+".ns_per_bit"] = ratio(float64(l.self[i]), bits)
		cover += l.self[i]
	}
	rep.layer["modulation.demap_ms"] = ratio(float64(l.demap), sfs) / 1e6
	rep.layer["modulation.evm_ms"] = ratio(float64(l.evm), sfs) / 1e6
	rep.layer["uplink.decode_ms"] = ratio(float64(l.decode), sfs) / 1e6
	rep.layer["uplink.decode.ns_per_bit"] = ratio(float64(l.decode), bits)
	rep.layer["uplink.backend.other_ms"] = ratio(float64(l.self[lBackend]-l.demap-l.evm-l.decode), sfs) / 1e6
	rep.layer["uplink.ledger_cover"] = ratio(float64(cover), float64(l.untraced))
	rep.layer["trace.overhead"] = ratio(float64(l.traced), float64(l.untraced)) - 1

	var measured, predicted float64
	for s := 0; s < 4; s++ {
		measured += float64(l.self[s+1])
		predicted += l.pred[s]
	}
	line := "stage shares, measured vs cost.Model:"
	for s := 0; s < 4; s++ {
		ms, ps := ratio(float64(l.self[s+1]), measured), ratio(l.pred[s], predicted)
		rep.layer["cost.share_err."+ledgerNames[s+1]] = math.Abs(ps - ms)
		line += fmt.Sprintf(" %s %.3f vs %.3f", ledgerNames[s+1], ms, ps)
	}
	rep.layer["cost.cycles_per_ns"] = ratio(predicted, measured)
	rep.note("ledger: %d subframes, %d users, cover %.3f, trace overhead %+.3f",
		l.subframes, l.users, rep.layer["uplink.ledger_cover"], rep.layer["trace.overhead"])
	rep.note("%s", line)
}
