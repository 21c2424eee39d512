package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// A span is one timed call into a layer: its name, its interval, the
// span that caused it and the request (one replayed op) it belongs to.
type span struct {
	Name       string
	Start, End time.Duration // since the tracer's epoch
	ID, Parent int           // Parent 0 marks a root
	Req        int
	// TID is the goroutine lane the span ran on, for the trace viewer.
	TID int
}

// A tracer keeps the spans of a traced replay in memory until the run
// writes them out. begin and end nest spans on the replay goroutine;
// beginRemote and endRemote record a span another goroutine runs on
// the replay's behalf (a server handling its request).
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	open  []int // ids of the open spans on the replay goroutine, innermost last
	req   int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// request starts a new request id: the spans begun until the next call
// share it.
func (t *tracer) request() { t.req++ }

// begin opens a span nested under the innermost open one and returns
// its id for end.
func (t *tracer) begin(name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.epoch), ID: id, Parent: parent, Req: t.req, TID: 1})
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = time.Since(t.epoch)
	if n := len(t.open); n == 0 || t.open[n-1] != id {
		panic(fmt.Sprintf("trace: span %q closed out of order", t.spans[id-1].Name))
	}
	t.open = t.open[:len(t.open)-1]
}

// current returns the innermost open span on the replay goroutine.
func (t *tracer) current() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.open[len(t.open)-1]
}

// beginRemote opens a span on another goroutine as a child of parent,
// in the parent's request.
func (t *tracer) beginRemote(name string, parent int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.epoch), ID: id, Parent: parent, Req: t.spans[parent-1].Req, TID: 2})
	return id
}

// endRemote closes a span opened with beginRemote.
func (t *tracer) endRemote(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = time.Since(t.epoch)
}

// timed runs f inside a span.
func (t *tracer) timed(name string, f func()) {
	id := t.begin(name)
	f()
	t.end(id)
}

// selfTimes returns each span's self time, indexed like spans: its
// duration minus the part of its interval its children cover. Children
// may overlap one another (children on other goroutines) or stick out
// of the parent; only the union of their intervals inside the parent
// counts.
func selfTimes(spans []span) []time.Duration {
	index := make(map[int]int, len(spans))
	for i, s := range spans {
		index[s.ID] = i
	}
	children := make(map[int][]int)
	for i, s := range spans {
		if _, ok := index[s.Parent]; ok {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		type interval struct{ lo, hi time.Duration }
		var ivs []interval
		for _, c := range children[s.ID] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if hi > lo {
				ivs = append(ivs, interval{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, reach time.Duration
		reach = s.Start
		for _, iv := range ivs {
			if iv.lo > reach {
				reach = iv.lo
			}
			if iv.hi > reach {
				covered += iv.hi - reach
				reach = iv.hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// rootNames returns, for each span, the name of its top-level ancestor.
func rootNames(spans []span) []string {
	index := make(map[int]int, len(spans))
	for i, s := range spans {
		index[s.ID] = i
	}
	out := make([]string, len(spans))
	for i := range spans {
		j := i
		for {
			p, ok := index[spans[j].Parent]
			if !ok {
				break
			}
			j = p
		}
		out[i] = spans[j].Name
	}
	return out
}

// selfByRequest sums self times per span name and request over the
// spans under roots named root. The roots' own self time (the glue
// between layer calls) is left out.
func selfByRequest(spans []span, root string) map[string]map[int]time.Duration {
	self := selfTimes(spans)
	roots := rootNames(spans)
	out := make(map[string]map[int]time.Duration)
	for i, s := range spans {
		if roots[i] != root || s.Parent == 0 {
			continue
		}
		m := out[s.Name]
		if m == nil {
			m = make(map[int]time.Duration)
			out[s.Name] = m
		}
		m[s.Req] += self[i]
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, which chrome://tracing and Perfetto open directly.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeChromeTrace writes spans to path in Chrome trace-event format.
func writeChromeTrace(path string, spans []span) error {
	events := make([]chromeEvent, len(spans))
	for i, s := range spans {
		events[i] = chromeEvent{
			Name: s.Name, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: s.TID,
			Args: map[string]int{"id": s.ID, "parent": s.Parent, "req": s.Req},
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
