package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Its id is (workload, cell, seq, user); user is -1 for spans
// that cover a whole subframe or none.
type span struct {
	name       string
	start, end int64
	parent     int32
	cell       int32
	seq        int64
	user       int32
}

// maxSpans bounds the in-memory trace; later spans are counted as
// dropped rather than recorded.
const maxSpans = 1 << 18

// tracer keeps spans in memory until the run ends. A nil or disabled
// tracer records nothing and costs one branch per call.
type tracer struct {
	on      bool
	mu      sync.Mutex
	spans   []span
	dropped int64
}

func newTracer(on bool) *tracer { return &tracer{on: on} }

// add records a finished span and returns its index (-1 when not
// recorded).
func (t *tracer) add(name string, parent int32, cell int, seq int64, user int, start, end int64) int32 {
	if t == nil || !t.on {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{name, start, end, parent, int32(cell), seq, int32(user)})
	return int32(len(t.spans) - 1)
}

// open records a span whose end is set later by close, so children can
// name it as their parent.
func (t *tracer) open(name string, parent int32, cell int, seq int64, user int) int32 {
	return t.add(name, parent, cell, seq, user, now(), 0)
}

func (t *tracer) close(id int32) {
	if id < 0 {
		return
	}
	end := now()
	t.mu.Lock()
	t.spans[id].end = end
	t.mu.Unlock()
}

func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// writeFile writes the spans as Chrome trace_event JSON (load it in
// chrome://tracing or Perfetto) and returns the file path.
func (t *tracer) writeFile(dir, workload string, seed uint64, h host) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	type args struct {
		Seq    int64 `json:"seq"`
		User   int32 `json:"user"`
		Parent int32 `json:"parent"`
		ID     int   `json:"id"`
	}
	type event struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  int32   `json:"tid"`
		Args args    `json:"args"`
	}
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	fmt.Fprintf(w, `{"displayTimeUnit":"ms","otherData":`)
	hj, _ := json.Marshal(h)
	w.Write(hj)
	fmt.Fprintf(w, `,"traceEvents":[`)
	for i, s := range spans {
		if i > 0 {
			w.WriteByte(',')
		}
		ej, _ := json.Marshal(event{
			Name: s.name, Ph: "X", Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: s.cell + 1, Args: args{Seq: s.seq, User: s.user, Parent: s.parent, ID: i},
		})
		w.Write(ej)
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
