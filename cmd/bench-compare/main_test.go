package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: ltephy/internal/uplink
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkSubframeE2E-8     	    1581	   1524479 ns/op	   32611 B/op	       4 allocs/op
BenchmarkChanEstStage-8    	   53205	     49835 ns/op	       0 B/op	       0 allocs/op
BenchmarkChanEstStage-8    	   55000	     48000 ns/op	       0 B/op	       0 allocs/op
BenchmarkUnknown-8         	     100	      1000 ns/op
PASS
`

func TestParseBench(t *testing.T) {
	got, order, err := parseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %v", len(order), order)
	}
	e2e := got["BenchmarkSubframeE2E"]
	if e2e.NsPerOp != 1524479 || e2e.AllocsPerOp != 4 || !e2e.hasAllocs {
		t.Errorf("SubframeE2E parsed as %+v", e2e)
	}
	// Duplicate runs keep the minimum ns/op.
	if got["BenchmarkChanEstStage"].NsPerOp != 48000 {
		t.Errorf("ChanEstStage min = %g, want 48000", got["BenchmarkChanEstStage"].NsPerOp)
	}
	if got["BenchmarkUnknown"].hasAllocs {
		t.Error("benchmark without -benchmem output claims alloc data")
	}
}

func TestLoadBaselinesMinAcrossFiles(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.json")
	b := filepath.Join(dir, "b.json")
	os.WriteFile(a, []byte(`{"benchmarks": {"BenchmarkX": {"ns_per_op": 200, "allocs_per_op": 4}}}`), 0o644)
	os.WriteFile(b, []byte(`{"benchmarks": {"BenchmarkX": {"ns_per_op": 100}, "BenchmarkY": {"ns_per_op": 7}}}`), 0o644)
	base, err := loadBaselines([]string{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if base["BenchmarkX"].NsPerOp != 100 {
		t.Errorf("BenchmarkX min = %g, want 100", base["BenchmarkX"].NsPerOp)
	}
	if base["BenchmarkX"].hasAllocs {
		t.Error("min entry without alloc data claims alloc data")
	}
	if base["BenchmarkY"].NsPerOp != 7 {
		t.Errorf("BenchmarkY = %g, want 7", base["BenchmarkY"].NsPerOp)
	}
}
