package main

import (
	"bufio"
	"fmt"
	"hash/maphash"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ltephy/internal/params"
	"ltephy/internal/sched"
	"ltephy/internal/uplink"
	"ltephy/internal/uplink/tx"
)

// report collects one run's measurements and correctness verdicts.
type report struct {
	e2e, layer map[string]float64
	// attempted counts subframes offered; failed counts subframes that
	// errored, were lost, or whose outputs failed a check.
	attempted, failed int64
	failures          []string
	notes             []string
	tr                *tracer
}

func newReport(tr *tracer) *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}, tr: tr}
}

// fail records a correctness failure; any failure makes the run incorrect.
func (r *report) fail(format string, args ...any) {
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	} else if len(r.failures) == 20 {
		r.failures = append(r.failures, "further failures suppressed")
	}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// host is the stamp every result carries: figures from another host are
// history, not evidence.
type host struct {
	Go         string  `json:"go"`
	CPU        string  `json:"cpu"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
}

func hostStamp(o options) host {
	return host{
		Go: runtime.Version(), CPU: cpuModel(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workload: o.Workload, Seed: o.Seed, Seconds: o.Seconds, Trace: o.Trace,
	}
}

// cpuModel reads the CPU model name the kernel reports (Linux), or
// returns the architecture when it cannot.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// workers is the pool size and connection bound: one per CPU.
func workers() int { return runtime.NumCPU() }

var epoch = time.Now()

// now is a monotonic nanosecond clock shared by every measurement.
func now() int64 { return int64(time.Since(epoch)) }

func sleepUntil(t int64) {
	if d := t - now(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}

// pct returns the q-quantile (nearest rank) of xs in milliseconds; xs is
// sorted in place.
func pct(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(xs[i]) / 1e6
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// setupRounds is how often a run sets its workload up; setup_s is the
// median, and the last round's state is the one measured.
const setupRounds = 5

// timedSetup builds the workload state setupRounds times, tearing down
// all but the last, and returns it with the median build time in seconds.
func timedSetup[T any](build func() (T, error), teardown func(T)) (T, float64, error) {
	var cur T
	var durs []float64
	for i := 0; i < setupRounds; i++ {
		if i > 0 {
			teardown(cur)
		}
		t0 := now()
		v, err := build()
		if err != nil {
			var zero T
			return zero, 0, err
		}
		durs = append(durs, float64(now()-t0)/1e9)
		cur = v
	}
	runtime.GC()
	return cur, median(durs), nil
}

// ringSubframes is one cell's bounded input ring: ringSize subframes
// drawn from the compressed parameter model, so one pass over the ring
// spans the paper's whole layer/modulation ramp. The ramp is visited with
// a golden-ratio stride rather than in order, so any run of consecutive
// ring slots — whatever prefix a timed phase reaches — samples the whole
// ramp. PRBs are clamped to maxPRB. Signal data comes from the
// dispatcher's cache (one realisation per parameter combination and cache
// set), so memory is bounded by the distinct user shapes, not by the ring
// length. ringSize must be a power of two.
func ringSubframes(disp *sched.Dispatcher, seed uint64, cell, ringSize, maxPRB int) ([]*uplink.Subframe, error) {
	model := params.NewRandomCompressed(seed*1_000_003+uint64(cell), params.TraceLength/ringSize)
	stride := int(0.618*float64(ringSize)) | 1 // odd, so coprime with a power of two
	ring := make([]*uplink.Subframe, ringSize)
	for i := 0; i < ringSize; i++ {
		ps := model.Next()
		for k := range ps {
			if ps[k].PRB > maxPRB {
				ps[k].PRB = maxPRB
			}
			ps[k].ID = k
		}
		sf, err := disp.Subframe(int64(i), ps)
		if err != nil {
			return nil, err
		}
		sf.Cell = uint16(cell)
		ring[i*stride%ringSize] = sf
	}
	return ring, nil
}

// newDispatcher is the signal synthesiser every workload uses.
func newDispatcher(seed uint64, txc tx.Config) *sched.Dispatcher {
	return sched.NewDispatcher(sched.DispatcherConfig{
		Delta: time.Millisecond, TX: txc, CacheSets: 2, Seed: seed,
	})
}

// warmShapes initialises one job per distinct user shape in the rings,
// filling the receiver's transport-format, reference-sequence and FFT
// plan caches so the timed phase measures processing, not first sight.
func warmShapes(cfg uplink.ReceiverConfig, rings ...[]*uplink.Subframe) error {
	seen := map[uplink.UserParams]bool{}
	var j uplink.UserJob
	for _, ring := range rings {
		for _, sf := range ring {
			for _, u := range sf.Users {
				p := u.Params
				p.ID = 0
				if seen[p] {
					continue
				}
				seen[p] = true
				if err := j.Init(nil, cfg, u); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// subframeAt is the ring subframe for a sequence number.
func subframeAt(ring []*uplink.Subframe, seq int64) *uplink.Subframe {
	sf := *ring[seq%int64(len(ring))]
	sf.Seq = seq
	return &sf
}

// ---- output digests and the serial oracle ----

var digestSeed = maphash.MakeSeed()

// outcome is what the correctness check compares per user: a digest of
// the decoded payload, the CRC flag and the realized turbo
// half-iterations.
type outcome struct {
	digest uint64
	crc    bool
	half   int32
}

func outcomeOf(r uplink.UserResult) outcome {
	return outcome{digest: maphash.Bytes(digestSeed, r.Bits), crc: r.CRCOK, half: int32(r.TurboHalfIters)}
}

type resultKey struct {
	cell uint16
	seq  int64
	user int32
}

type record struct {
	key resultKey
	out outcome
}

// collector gathers user results from any goroutine (pool OnResult
// hooks, the serial loop).
type collector struct {
	mu   sync.Mutex
	recs []record
}

func (c *collector) add(r uplink.UserResult) {
	rec := record{key: resultKey{r.Cell, r.Seq, int32(r.UserID)}, out: outcomeOf(r)}
	c.mu.Lock()
	c.recs = append(c.recs, rec)
	c.mu.Unlock()
}

func (c *collector) reset() {
	c.mu.Lock()
	c.recs = c.recs[:0]
	c.mu.Unlock()
}

func (c *collector) snapshot() []record {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]record(nil), c.recs...)
}

// oracle holds the serial receiver's (uplink.ProcessSubframe) outcomes
// for every ring slot: the reference every pool and server output must
// match. It is computed after the timed phases, one goroutine per CPU.
type oracle struct {
	outs [][][]outcome // [cell][slot][user]
}

func newOracle(cfg uplink.ReceiverConfig, rings ...[]*uplink.Subframe) (*oracle, error) {
	o := &oracle{outs: make([][][]outcome, len(rings))}
	type slot struct{ cell, slot int }
	jobs := make(chan slot)
	errs := make([]error, workers())
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				if errs[w] == nil {
					o.outs[j.cell][j.slot], errs[w] = serialOutcomes(cfg, j.cell, j.slot, rings[j.cell][j.slot])
				}
			}
		}()
	}
	for c, ring := range rings {
		o.outs[c] = make([][]outcome, len(ring))
		for s := range ring {
			jobs <- slot{c, s}
		}
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return o, nil
}

// serialOutcomes runs one ring slot through the serial receiver. A
// CRC-verified payload must also equal the transmitted one.
func serialOutcomes(cfg uplink.ReceiverConfig, cell, slot int, sf *uplink.Subframe) ([]outcome, error) {
	res, err := uplink.ProcessSubframe(cfg, sf)
	if err != nil {
		return nil, err
	}
	outs := make([]outcome, len(res))
	for i, r := range res {
		outs[i] = outcomeOf(r)
		if r.CRCOK && !equalBits(r.Bits, sf.Users[i].Payload) {
			return nil, fmt.Errorf("cell %d slot %d user %d: CRC passed on a payload that differs from the transmitted one",
				cell, slot, i)
		}
	}
	return outs, nil
}

func equalBits(a, b []uint8) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// verifyResults checks every collected result against the oracle, per
// (cell, seq, user): payload digest and CRC flag, each user at most once.
// It returns the number of subframes with a mismatch.
func verifyResults(rep *report, or *oracle, recs []record) int64 {
	seen := make(map[resultKey]bool, len(recs))
	bad := map[[2]int64]bool{}
	for _, rc := range recs {
		k := rc.key
		if seen[k] {
			rep.fail("cell %d seq %d user %d: result delivered twice", k.cell, k.seq, k.user)
			bad[[2]int64{int64(k.cell), k.seq}] = true
			continue
		}
		seen[k] = true
		ring := or.outs[k.cell]
		outs := ring[k.seq%int64(len(ring))]
		if int(k.user) >= len(outs) || outs[k.user] != rc.out {
			rep.fail("cell %d seq %d user %d: output differs from the serial receiver", k.cell, k.seq, k.user)
			bad[[2]int64{int64(k.cell), k.seq}] = true
		}
	}
	return int64(len(bad))
}

// crcStats summarises decoded results: users decoded, CRC passes and the
// realized turbo half-iterations.
func crcStats(recs []record) (decoded, pass, halfIters int64) {
	for _, rc := range recs {
		decoded++
		if rc.out.crc {
			pass++
		}
		halfIters += int64(rc.out.half)
	}
	return
}

// ---- Go runtime counters ----

// memWatch samples the heap in use while the timed rounds run and takes
// runtime/metrics deltas across them.
type memWatch struct {
	stop, done chan struct{}
	peak       atomic.Uint64
	before     []metrics.Sample
}

var rtSamples = []string{"/gc/heap/allocs:bytes", "/sched/pauses/total/gc:seconds"}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(rtSamples))
	for i, n := range rtSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func startMemWatch() *memWatch {
	m := &memWatch{stop: make(chan struct{}), done: make(chan struct{}), before: readRuntime()}
	go func() {
		defer close(m.done)
		heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(heap)
			v := heap[0].Value.Uint64()
			for p := m.peak.Load(); v > p && !m.peak.CompareAndSwap(p, v); p = m.peak.Load() {
			}
			select {
			case <-m.stop:
				return
			case <-t.C:
			}
		}
	}()
	return m
}

// roundPeak returns the peak heap in use (MiB) since the previous call.
func (m *memWatch) roundPeak() float64 {
	return float64(m.peak.Swap(0)) / (1 << 20)
}

// finish stops sampling and returns the bytes allocated and the total GC
// pause (seconds) since start.
func (m *memWatch) finish() (allocBytes float64, gcPause float64) {
	close(m.stop)
	<-m.done
	after := readRuntime()
	allocBytes = float64(after[0].Value.Uint64() - m.before[0].Value.Uint64())
	h0, h1 := m.before[1].Value.Float64Histogram(), after[1].Value.Float64Histogram()
	for i := range h1.Counts {
		n := h1.Counts[i] - h0.Counts[i]
		if n == 0 {
			continue
		}
		lo, hi := h1.Buckets[i], h1.Buckets[i+1]
		mid := (lo + hi) / 2
		if math.IsInf(lo, -1) {
			mid = hi
		} else if math.IsInf(hi, 1) {
			mid = lo
		}
		gcPause += float64(n) * mid
	}
	return allocBytes, gcPause
}

// roundLen is the length of one measurement round. The timed budget is
// cut into rounds that each run every phase of the workload, and each
// end-to-end metric is the median of its per-round values: a host stall
// or a slow spell moves a few rounds, not the result.
const roundLen = 2e9

func numRounds(budgetNs int64) int {
	if n := int(budgetNs / roundLen); n > 3 {
		return n
	}
	return 3
}

// perRound collects one value per round for each end-to-end metric.
type perRound map[string][]float64

func (p perRound) add(name string, v float64) { p[name] = append(p[name], v) }

// into stores the median of each metric's round values.
func (p perRound) into(m map[string]float64) {
	for name, vs := range p {
		m[name] = median(vs)
	}
}

// poolStats sums per-worker scheduler counters across pools.
func poolStats(pools []*sched.Pool) sched.WorkerStats {
	var t sched.WorkerStats
	for _, p := range pools {
		for _, s := range p.Stats() {
			t.TasksRun += s.TasksRun
			t.UsersStarted += s.UsersStarted
			t.Steals += s.Steals
			t.FailedSteals += s.FailedSteals
			t.BusyNanos += s.BusyNanos
			t.NapNanos += s.NapNanos
		}
	}
	return t
}

// schedMetrics fills the sched.* per-layer metrics from counter deltas
// over a window of wallNs on nWorkers workers; serialNs is the serial
// receiver's time for the same work (par_eff = serial / (workers x wall)).
func schedMetrics(rep *report, before, after sched.WorkerStats, nWorkers int, wallNs, serialNs float64, subframes int64) {
	busy := float64(after.BusyNanos - before.BusyNanos)
	steals := float64(after.Steals - before.Steals)
	failed := float64(after.FailedSteals - before.FailedSteals)
	capacity := float64(nWorkers) * wallNs
	rep.layer["sched.busy_frac"] = ratio(busy, capacity)
	rep.layer["sched.steals"] = ratio(steals, float64(subframes))
	rep.layer["sched.steal_hit"] = ratio(steals, steals+failed)
	rep.layer["sched.tasks"] = ratio(float64(after.TasksRun-before.TasksRun), float64(subframes))
	rep.layer["sched.par_eff"] = ratio(serialNs, capacity)
}

// goMetrics fills the Go runtime metrics of a timed window.
func goMetrics(rep *report, allocBytes, gcPause, wallNs float64, subframes int64) {
	rep.layer["go.gc_pause_ms"] = ratio(gcPause*1e3, wallNs/1e9)
	rep.layer["go.alloc_bytes_per_sf"] = ratio(allocBytes, float64(subframes))
}
