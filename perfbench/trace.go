package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Times are offsets from the
// tracer's epoch; parent is the index+1 of the enclosing span (0 = root);
// req groups the spans of one request or one unit of work.
type span struct {
	name       string
	start, end time.Duration
	parent     int
	req        int64
	args       map[string]any
}

// tracer records spans in memory. A nil *tracer is valid and records
// nothing, so the untraced path runs the same code with tracing off.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (0 when tracing is off).
func (t *tracer) begin(name string, parent int, req int64, args map[string]any) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, start: now, end: -1, parent: parent, req: req, args: args})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id-1].end = now
	t.mu.Unlock()
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// layerTime is the aggregate of one span name: call count, summed
// durations, and summed self time (duration minus the part of the span's
// interval that its children cover).
type layerTime struct {
	n          int
	total, own time.Duration
}

// layers aggregates every closed span by name.
func layers(spans []span) map[string]layerTime {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	out := make(map[string]layerTime)
	for i, s := range spans {
		if s.end < s.start {
			continue
		}
		lt := out[s.name]
		lt.n++
		lt.total += s.end - s.start
		lt.own += selfTime(s, kids[i+1])
		out[s.name] = lt
	}
	return out
}

// selfTime is s's duration minus the union of its children's intervals,
// clipped to s. Children may overlap one another (a parent that fans work
// out to parallel workers), so the union, not the sum, is subtracted.
func selfTime(s span, children []span) time.Duration {
	iv := make([][2]time.Duration, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.start, s.start), min(c.end, s.end)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered time.Duration
	var curLo, curHi time.Duration
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			covered += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	covered += curHi - curLo
	return s.end - s.start - covered
}

// traceEvent is one Chrome trace-event "complete" event.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the spans as a Chrome trace-event JSON file (opens in
// Perfetto or chrome://tracing). Spans are packed onto display lanes so
// that every lane holds properly nested intervals; the causal parent and
// request id travel in each event's args.
func (t *tracer) writeChrome(path string, meta map[string]any) error {
	spans := t.snapshot()
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		sa, sb := spans[order[a]], spans[order[b]]
		if sa.start != sb.start {
			return sa.start < sb.start
		}
		return sa.end > sb.end
	})
	var lanes [][]time.Duration // per lane: stack of open span ends
	events := make([]traceEvent, 0, len(spans)+1)
	for _, i := range order {
		s := spans[i]
		if s.end < s.start {
			continue
		}
		lane := -1
		for l := range lanes {
			st := lanes[l]
			for len(st) > 0 && st[len(st)-1] <= s.start {
				st = st[:len(st)-1]
			}
			lanes[l] = st
			if len(st) == 0 || st[len(st)-1] >= s.end {
				lane = l
				break
			}
		}
		if lane < 0 {
			lanes = append(lanes, nil)
			lane = len(lanes) - 1
		}
		lanes[lane] = append(lanes[lane], s.end)
		args := map[string]any{"id": i + 1, "parent": s.parent, "req": s.req}
		for k, v := range s.args {
			args[k] = v
		}
		events = append(events, traceEvent{
			Name: s.name, Ph: "X", Pid: 1, Tid: lane + 1, Args: args,
			Ts:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
		})
	}
	events = append(events, traceEvent{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": "perfbench"}})
	data, err := json.Marshal(map[string]any{"traceEvents": events, "metadata": meta})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
