package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// span is one layer call observed from the benchmark's side of the call:
// the layer entered, when, for how long, and the span that made the call.
// Every span of one pass shares the pass id.
type span struct {
	Name   string        `json:"name"`
	Pass   int           `json:"pass"`
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // -1 for a pass root
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	// AllocB is the heap bytes allocated during the span, read from
	// runtime/metrics at its edges. Concurrent sweep workers allocate on
	// the span's behalf while the calling goroutine waits in the call.
	AllocB uint64 `json:"alloc_b"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps the spans of a run in memory. A nil *tracer is the
// untraced mode: every method but record is a no-op, so the timed pass
// runs the same calls with tracing off. The decode wrapper records from
// whichever goroutine the sweep reads its source on, hence the mutex.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
	pass   int
	sample []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{
		origin: time.Now(),
		sample: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
	}
}

func (t *tracer) allocs() uint64 {
	metrics.Read(t.sample)
	return t.sample[0].Value.Uint64()
}

// begin opens a span under parent and returns its id; end closes it.
// Spans are closed in LIFO order on the goroutine that opened them.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	a := t.allocs()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Pass: t.pass, ID: id, Parent: parent, Start: time.Since(t.origin), AllocB: a})
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.origin)
	a := t.allocs()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	t.spans[id].AllocB = a - t.spans[id].AllocB
}

// record appends an already-timed span and runs also under the lock; the
// decode wrapper uses it so a chunk costs two clock reads and no
// allocation counter reads.
func (t *tracer) record(name string, parent int, start, end time.Time, also func()) {
	t.mu.Lock()
	defer t.mu.Unlock()
	also()
	t.spans = append(t.spans, span{Name: name, Pass: t.pass, ID: len(t.spans), Parent: parent,
		Start: start.Sub(t.origin), End: end.Sub(t.origin)})
}

// call wraps one layer call in a span.
func (t *tracer) call(name string, parent int, f func() error) error {
	id := t.begin(name, parent)
	err := f()
	t.end(id)
	return err
}

// passSpans returns the spans of pass p.
func (t *tracer) passSpans(p int) []span {
	var out []span
	for _, s := range t.spans {
		if s.Pass == p {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes derives each layer's self time over one pass: a span's
// duration minus the part its children cover. Children of one span never
// overlap (each layer call blocks its caller), so the covered part is
// the sum of the children's durations. The pass root is excluded;
// "check" spans mark untimed oracle work and are excluded too.
func selfTimes(spans []span) map[string]time.Duration {
	child := map[int]time.Duration{}
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		if s.Parent < 0 || s.Name == checkSpan {
			continue
		}
		out[s.Name] += s.dur() - child[s.ID]
	}
	return out
}

// allocByLayer sums the heap bytes allocated per layer over one pass.
func allocByLayer(spans []span) map[string]uint64 {
	out := map[string]uint64{}
	for _, s := range spans {
		if s.Parent >= 0 {
			out[s.Name] += s.AllocB
		}
	}
	return out
}

// coverage is the share of a pass's timed duration (root minus untimed
// check spans) covered by the root's direct children that are layers.
func coverage(spans []span) float64 {
	var root span
	for _, s := range spans {
		if s.Parent < 0 {
			root = s
		}
	}
	var layers, checks time.Duration
	for _, s := range spans {
		if s.Parent != root.ID || s.Parent < 0 {
			continue
		}
		if s.Name == checkSpan {
			checks += s.dur()
		} else {
			layers += s.dur()
		}
	}
	timed := root.dur() - checks
	if timed <= 0 {
		return 0
	}
	return float64(layers) / float64(timed)
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	sorted := append([]span(nil), t.spans...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	for _, s := range sorted {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
