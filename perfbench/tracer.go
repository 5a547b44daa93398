package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// tracer records spans around the benchmark's calls into each layer. The
// program itself carries no tracing: every span starts and ends in the
// benchmark's own wrappers and hooks. Spans are kept in memory and written
// out when the run ends. A nil *tracer records nothing, so the untraced
// passes share the wrappers' code paths at the cost of a nil check.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
	names  []string
	ids    map[string]uint16
}

// span is one layer call. Parent is the id of the span that caused it (-1
// for a root); start and end are nanoseconds since the tracer's origin.
type span struct {
	name       uint16
	parent     int32
	start, end int64
}

// noSpan is the id of a span that was not recorded.
const noSpan int32 = -1

// maxSpans bounds the in-memory buffer; a traced pass is sized to stay
// well below it.
const maxSpans = 4 << 20

func newTracer() *tracer {
	return &tracer{origin: time.Now(), ids: make(map[string]uint16)}
}

// now returns the tracer clock.
func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// begin opens a span starting now.
func (t *tracer) begin(name string, parent int32) int32 {
	if t == nil {
		return noSpan
	}
	return t.beginAt(name, parent, t.now())
}

// beginAt opens a span with an explicit start time.
func (t *tracer) beginAt(name string, parent int32, at int64) int32 {
	if t == nil {
		return noSpan
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		return noSpan
	}
	id, ok := t.ids[name]
	if !ok {
		id = uint16(len(t.names))
		t.names = append(t.names, name)
		t.ids[name] = id
	}
	t.spans = append(t.spans, span{name: id, parent: parent, start: at, end: -1})
	return int32(len(t.spans) - 1)
}

// end closes a span now.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.endAt(id, t.now())
}

// endAt closes a span at an explicit time.
func (t *tracer) endAt(id int32, at int64) {
	if t == nil || id == noSpan {
		return
	}
	t.mu.Lock()
	t.spans[id].end = at
	t.mu.Unlock()
}

// spanStats aggregates the closed spans of one name.
type spanStats struct {
	count     int
	total     time.Duration
	durations []float64 // microseconds, in recording order
}

// byName returns per-name aggregates of the closed spans.
func (t *tracer) byName() map[string]*spanStats {
	out := make(map[string]*spanStats)
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.end < 0 {
			continue
		}
		name := t.names[s.name]
		st := out[name]
		if st == nil {
			st = &spanStats{}
			out[name] = st
		}
		d := time.Duration(s.end - s.start)
		st.count++
		st.total += d
		st.durations = append(st.durations, float64(d)/float64(time.Microsecond))
	}
	return out
}

// selfTimes returns each layer's self time: the duration of its spans minus
// the part of each span's interval that its child spans cover (children of
// one parent may overlap when they run on several goroutines, so the
// covered part is the union of their intervals). A span's layer is its name
// up to the first dot.
func (t *tracer) selfTimes() map[string]time.Duration {
	out := make(map[string]time.Duration)
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int32][]int32)
	for i, s := range t.spans {
		if s.end >= 0 && s.parent != noSpan {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	for i, s := range t.spans {
		if s.end < 0 {
			continue
		}
		self := s.end - s.start - covered(t.spans, children[int32(i)], s.start, s.end)
		layer, _, _ := strings.Cut(t.names[s.name], ".")
		out[layer] += time.Duration(self)
	}
	return out
}

// covered is the length of the union of the child intervals, clipped to
// [lo, hi].
func covered(spans []span, kids []int32, lo, hi int64) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := spans[k].start, spans[k].end
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curA, curB int64
	curA, curB = -1, -1
	for _, x := range iv {
		if x[0] > curB {
			sum += curB - curA
			curA, curB = x[0], x[1]
		} else if x[1] > curB {
			curB = x[1]
		}
	}
	return sum + curB - curA
}

// report adds the self-time metric of every layer in the per-layer table
// that carries spans.
func (t *tracer) report(o *outcome) {
	for layer, d := range t.selfTimes() {
		name := "self_ms." + layer
		for _, m := range perLayer {
			if m.name == name {
				o.metrics[name] = millis(d)
			}
		}
	}
}

// write dumps the spans as JSON lines (one object per span) to path.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	t.mu.Lock()
	for i, s := range t.spans {
		fmt.Fprintf(w, "{\"id\":%d,\"parent\":%d,\"name\":%q,\"start_ns\":%d,\"end_ns\":%d}\n",
			i, s.parent, t.names[s.name], s.start, s.end)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanPath is where a traced run of the workload writes its spans.
func spanPath(cfg runConfig, workload string) string {
	return filepath.Join(cfg.workdir, "spans", workload+".jsonl")
}
