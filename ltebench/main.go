// Command ltebench is the repository benchmark: it drives the receiver,
// the serving layer and the fleet coordinator through their public
// functions, checks every output against the serial receiver, and prints
// one JSON result line.
//
//	ltebench --workload rx-pass|rx-turbo|serve|serve-migrate \
//	    --seed N --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics with no spans recorded;
// --trace 1 is a separate run that records spans around every layer call
// and reports the per-layer metrics (and writes a Chrome trace_event file
// under --trace-dir). README.md explains the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// options are the benchmark arguments shared by every workload.
type options struct {
	Workload string
	Seed     uint64
	Seconds  float64
	Trace    bool
	TraceDir string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract line: the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workloads maps each --workload name to its runner.
var workloads = map[string]func(options) (*report, error){
	"rx-pass":       runRxPass,
	"rx-turbo":      runRxTurbo,
	"serve":         runServe,
	"serve-migrate": runServeMigrate,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ltebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.Workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&o.Seed, "seed", 1, "input seed (same seed, same inputs)")
	fs.Float64Var(&o.Seconds, "seconds", 10, "measured seconds per run")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	fs.StringVar(&o.TraceDir, "trace-dir", ".bench_build/traces", "where a traced run writes its Chrome trace ('' = nowhere)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[o.Workload]
	if !ok || o.Seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "ltebench: need --workload (%s), --seconds > 0 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	o.Trace = *traceFlag == 1

	host := hostStamp(o)
	rep, err := runner(o)
	if err != nil {
		fmt.Fprintf(stderr, "ltebench: %s: %v\n", o.Workload, err)
		return 1
	}
	for _, f := range rep.failures {
		fmt.Fprintf(stderr, "ltebench: %s: check failed: %s\n", o.Workload, f)
	}
	if o.Trace && o.TraceDir != "" {
		path, err := rep.tr.writeFile(o.TraceDir, o.Workload, o.Seed, host)
		if err != nil {
			fmt.Fprintf(stderr, "ltebench: write trace: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "# trace %s (%d spans, %d dropped)\n", path, rep.tr.count(), rep.tr.dropped)
	}
	for _, line := range rep.notes {
		fmt.Fprintf(stdout, "# %s\n", line)
	}
	hj, _ := json.Marshal(host)
	fmt.Fprintf(stdout, "# host %s\n", hj)

	res, err := rep.result(o.Trace)
	if err != nil {
		fmt.Fprintf(stderr, "ltebench: %s: %v\n", o.Workload, err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "ltebench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// result assembles the contract line from the report: every end-to-end
// metric (untraced run) or every per-layer metric (traced run), each
// under its unit from the metric tables.
func (r *report) result(traced bool) (result, error) {
	defs, vals := endToEnd, r.e2e
	if traced {
		defs, vals = perLayer, r.layer
	}
	res := result{
		Correct:   len(r.failures) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	if res.Attempted < 1 {
		return res, fmt.Errorf("nothing was attempted")
	}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			v = 0 // a layer this workload does not exercise
			if !traced {
				return res, fmt.Errorf("metric %s was not measured", d.Name)
			}
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	return res, nil
}
