// bench-compare gates benchmark regressions: it parses `go test -bench`
// output (stdin or file arguments), matches each benchmark against the
// figures committed in baseline JSON files (the BENCH_*.json shape), and
// exits non-zero when any ns/op regresses beyond the tolerance (default
// 10%) or allocs/op grows at all.
//
//	go test -bench . -benchmem ./internal/uplink/ | \
//	    go run ./cmd/bench-compare -baseline BENCH_e2e_baseline.json,BENCH_turbo_baseline.json
//
// Benchmark names are compared with the -GOMAXPROCS suffix stripped, so
// `BenchmarkSubframeE2E-8` matches the baseline key `BenchmarkSubframeE2E`.
// When a name appears in several baseline files (or several times in the
// measured output, e.g. with -count), the minimum ns/op wins — baselines
// are best-case records, and comparing minima rejects scheduler noise.
// Benchmarks missing from every baseline are reported and skipped;
// baseline entries that were not measured are ignored (the caller picks
// which benchmarks to run).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// entry is one benchmark record, in the BENCH_*.json shape.
type entry struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	hasAllocs   bool
}

// baselineDoc mirrors the committed BENCH_*.json layout.
type baselineDoc struct {
	Comment    string                     `json:"comment"`
	Benchmarks map[string]json.RawMessage `json:"benchmarks"`
}

// benchLine matches one `go test -bench` result line:
//
//	BenchmarkName-8   1581   1524479 ns/op   32611 B/op   4 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(-\d+)?\s+\d+\s+([\d.]+) ns/op(?:\s+([\d.]+) B/op)?(?:\s+(\d+) allocs/op)?`)

func main() {
	var (
		baselines = flag.String("baseline", "", "comma-separated baseline JSON files (required)")
		tolerance = flag.Float64("tolerance", 0.10, "allowed fractional ns/op regression")
	)
	flag.Parse()
	if *baselines == "" {
		fmt.Fprintln(os.Stderr, "bench-compare: -baseline is required")
		flag.Usage()
		os.Exit(2)
	}

	base, err := loadBaselines(strings.Split(*baselines, ","))
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench-compare: %v\n", err)
		os.Exit(2)
	}

	var in io.Reader = os.Stdin
	if args := flag.Args(); len(args) > 0 {
		readers := make([]io.Reader, 0, len(args))
		for _, a := range args {
			f, err := os.Open(a)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench-compare: %v\n", err)
				os.Exit(2)
			}
			defer f.Close()
			readers = append(readers, f)
		}
		in = io.MultiReader(readers...)
	}
	measured, order, err := parseBench(in)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench-compare: %v\n", err)
		os.Exit(2)
	}
	if len(measured) == 0 {
		fmt.Fprintln(os.Stderr, "bench-compare: no benchmark lines in input")
		os.Exit(2)
	}

	failed := false
	for _, name := range order {
		m := measured[name]
		b, ok := base[name]
		if !ok {
			fmt.Printf("SKIP %-32s %12.0f ns/op (no baseline)\n", name, m.NsPerOp)
			continue
		}
		delta := (m.NsPerOp - b.NsPerOp) / b.NsPerOp
		status := "ok  "
		if delta > *tolerance {
			status = "FAIL"
			failed = true
		}
		fmt.Printf("%s %-32s %12.0f ns/op vs %12.0f baseline (%+.1f%%)\n",
			status, name, m.NsPerOp, b.NsPerOp, delta*100)
		if b.hasAllocs && m.hasAllocs && m.AllocsPerOp > b.AllocsPerOp {
			fmt.Printf("FAIL %-32s %d allocs/op vs %d baseline\n", name, m.AllocsPerOp, b.AllocsPerOp)
			failed = true
		}
	}
	if failed {
		fmt.Fprintf(os.Stderr, "bench-compare: regression beyond %.0f%% tolerance\n", *tolerance*100)
		os.Exit(1)
	}
}

// loadBaselines merges the benchmark tables of all files, keeping the
// minimum ns/op (and its alloc figures) per name.
func loadBaselines(files []string) (map[string]entry, error) {
	out := map[string]entry{}
	for _, f := range files {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		buf, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var doc baselineDoc
		if err := json.Unmarshal(buf, &doc); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		for name, raw := range doc.Benchmarks {
			var e entry
			if err := json.Unmarshal(raw, &e); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", f, name, err)
			}
			e.hasAllocs = strings.Contains(string(raw), "allocs_per_op")
			if old, ok := out[name]; !ok || e.NsPerOp < old.NsPerOp {
				out[name] = e
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no benchmark entries in %s", strings.Join(files, ","))
	}
	return out, nil
}

// parseBench extracts benchmark results from `go test -bench` output,
// keeping the minimum ns/op per (suffix-stripped) name and first-seen
// order.
func parseBench(r io.Reader) (map[string]entry, []string, error) {
	out := map[string]entry{}
	var order []string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		name := m[1]
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			return nil, nil, fmt.Errorf("bad ns/op in %q: %w", sc.Text(), err)
		}
		e := entry{NsPerOp: ns}
		if m[5] != "" {
			e.AllocsPerOp, _ = strconv.ParseInt(m[5], 10, 64)
			e.hasAllocs = true
		}
		if old, ok := out[name]; ok {
			if e.NsPerOp < old.NsPerOp {
				// Keep the faster run but never lose an alloc count.
				if !e.hasAllocs {
					e.AllocsPerOp, e.hasAllocs = old.AllocsPerOp, old.hasAllocs
				}
				out[name] = e
			}
			continue
		}
		out[name] = e
		order = append(order, name)
	}
	return out, order, sc.Err()
}
