package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"sort"
	"strings"
	"testing"

	"ltephy/internal/fronthaul"
	"ltephy/internal/sched"
	"ltephy/internal/uplink"
	"ltephy/internal/uplink/tx"
)

// smallRing is a short rx ring with small allocations, cheap enough for
// unit tests.
func smallRing(t *testing.T, cfg uplink.ReceiverConfig, snr float64, n int) []*uplink.Subframe {
	t.Helper()
	ring, err := ringSubframes(newDispatcher(3, tx.Config{Receiver: cfg, SNRdB: snr}), 3, 0, n, 6)
	if err != nil {
		t.Fatal(err)
	}
	return ring
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, benchmark runs %s", got, want)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
		}
		for i := range want {
			if g := (metricDef{got[i].Name, got[i].Unit, got[i].Better}); g != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, benchmark %+v", kind, i, g, want[i])
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

// TestOracleMismatchFailsRun runs a small ring through the pool, then
// checks the results twice: against the true serial oracle (must pass)
// and against an oracle over shifted inputs (must fail every subframe
// whose users differ).
func TestOracleMismatchFailsRun(t *testing.T) {
	cfg := uplink.DefaultConfig()
	ring := smallRing(t, cfg, 25, 8)
	col := &collector{}
	pool, err := sched.NewPool(sched.Config{Workers: 2, Receiver: cfg, OnResult: col.add})
	if err != nil {
		t.Fatal(err)
	}
	for seq := int64(0); seq < int64(len(ring)); seq++ {
		pool.ProcessSubframe(subframeAt(ring, seq))
	}
	pool.Close()
	recs := col.snapshot()

	or, err := newOracle(cfg, ring)
	if err != nil {
		t.Fatal(err)
	}
	good := newReport(nil)
	if bad := verifyResults(good, or, recs); bad != 0 || len(good.failures) != 0 {
		t.Fatalf("pool vs serial oracle: %d bad subframes, failures %v", bad, good.failures)
	}

	shifted, err := newOracle(cfg, append(ring[1:len(ring):len(ring)], ring[0]))
	if err != nil {
		t.Fatal(err)
	}
	rep := newReport(nil)
	if bad := verifyResults(rep, shifted, recs); bad == 0 {
		t.Fatal("a mismatching oracle passed the check")
	}
	rep.attempted = int64(len(ring))
	for _, d := range endToEnd {
		rep.e2e[d.Name] = 1
	}
	res, err := rep.result(false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct {
		t.Fatal("result with failed checks reports correct")
	}

	// A duplicated delivery is caught even when the output matches.
	dup := newReport(nil)
	if bad := verifyResults(dup, or, append(recs, recs[0])); bad != 1 {
		t.Fatalf("duplicate delivery: %d bad subframes, want 1", bad)
	}
}

// TestRunExitsNonZeroOnFailedCheck drives the command with a workload
// whose check fails: the result line says correct=false and the exit
// code is non-zero.
func TestRunExitsNonZeroOnFailedCheck(t *testing.T) {
	workloads["failing-check"] = func(options) (*report, error) {
		rep := newReport(nil)
		rep.attempted = 1
		for _, d := range endToEnd {
			rep.e2e[d.Name] = 1
		}
		rep.fail("injected mismatch")
		return rep, nil
	}
	defer delete(workloads, "failing-check")
	var out, errOut bytes.Buffer
	code := run([]string{"--workload", "failing-check", "--seconds", "1"}, &out, &errOut)
	if code == 0 {
		t.Fatal("exit code 0 after a failed check")
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if res.Correct || !strings.Contains(errOut.String(), "injected mismatch") {
		t.Fatalf("correct=%v stderr=%q", res.Correct, errOut.String())
	}
}

// TestLedgerCoversSerialReceiver checks the ledger's premise on rx-pass
// and rx-turbo shapes: the receiver layers' self times account for at
// least 90% of the untraced serial subframe time, and the stage-by-stage
// drive reproduces ProcessSubframe exactly. The cover is a ratio of two
// timings of the same work on a shared host, so a measurement disturbed
// by a stall is repeated (up to three times); glue code outside the
// stages would fail every attempt.
func TestLedgerCoversSerialReceiver(t *testing.T) {
	turbo := uplink.DefaultConfig()
	turbo.Turbo = uplink.TurboFull
	turbo.CodeRate = 0.5
	for _, tc := range []struct {
		name string
		cfg  uplink.ReceiverConfig
		snr  float64
	}{{"rx-pass", uplink.DefaultConfig(), 25}, {"rx-turbo", turbo, 15}} {
		t.Run(tc.name, func(t *testing.T) {
			ring := smallRing(t, tc.cfg, tc.snr, 16)
			if err := warmShapes(tc.cfg, ring); err != nil {
				t.Fatal(err)
			}
			var cover float64
			for attempt := 0; attempt < 3; attempt++ {
				rep := newReport(newTracer(true))
				l := newLedger(tc.cfg, rep.tr)
				l.run(rep, [][]*uplink.Subframe{ring}, 0)
				if len(rep.failures) != 0 {
					t.Fatalf("ledger checks failed: %v", rep.failures)
				}
				l.fill(rep)
				cover = rep.layer["uplink.ledger_cover"]
				if cover >= 0.9 {
					break
				}
			}
			if cover < 0.9 {
				t.Fatalf("uplink.ledger_cover = %.3f, want >= 0.9", cover)
			}
		})
	}
}

// TestFrameSeqRewrite: the generator's per-send rewrite of a pre-encoded
// frame yields a frame the server's header decoder accepts with the new
// sequence number.
func TestFrameSeqRewrite(t *testing.T) {
	cfg := uplink.DefaultConfig()
	ring := smallRing(t, cfg, 25, 2)
	f, err := fronthaul.AppendFrame(nil, 1, 0, frameUsers(ring[0]))
	if err != nil {
		t.Fatal(err)
	}
	g := newGenerator([][]*uplink.Subframe{ring[:1]}, [][][]byte{{f}}, nil, nil)
	c := g.cells[0]
	binary.LittleEndian.PutUint64(f[8:16], 12345)
	binary.LittleEndian.PutUint32(f[24:28], crc32.ChecksumIEEE(f[0:24]))
	h, err := fronthaul.ParseHeader((*[fronthaul.FrameHeaderLen]byte)(c.frames[0]), fronthaul.MaxUsersPerFrame, fronthaul.DefaultMaxPayload)
	if err != nil || h.Seq != 12345 || int(h.NUsers) != len(ring[0].Users) {
		t.Fatalf("rewritten header: %+v, %v", h, err)
	}
}

// TestWorkloadRunsAreCorrect runs every workload briefly end to end:
// outputs equal to the serial receiver with each user delivered once,
// every frame acked, the KPI ledger reconciled, (with migration) nothing
// lost or counted twice, and every end-to-end metric measured and non-zero.
func TestWorkloadRunsAreCorrect(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the workloads")
	}
	for _, w := range []string{"rx-pass", "rx-turbo", "serve", "serve-migrate"} {
		t.Run(w, func(t *testing.T) {
			rep, err := workloads[w](options{Workload: w, Seed: 5, Seconds: 1})
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.failures) != 0 || rep.failed != 0 {
				t.Fatalf("failed=%d: %v", rep.failed, rep.failures)
			}
			res, err := rep.result(false)
			if err != nil {
				t.Fatal(err)
			}
			for name, m := range res.Metrics {
				if m.Value == 0 {
					t.Errorf("%s reads 0", name)
				}
			}
		})
	}
}
