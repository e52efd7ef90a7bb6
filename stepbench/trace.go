package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one benchmark-side interval around a call into a program layer.
// Spans of one replayed force evaluation share Eval; Parent is the ID of the
// enclosing span, or -1 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Eval   int    `json:"eval"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps every span in memory until the run ends. It is safe for use
// from several goroutines (the collective replays run one per rank).
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its ID; end closes it.
func (t *tracer) begin(eval, parent int, name string) int {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Eval: eval, Name: name, Start: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// dur returns the duration (ns) of a closed span.
func (t *tracer) dur(id int) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id].dur()
}

// do runs fn inside a span named name.
func (t *tracer) do(eval, parent int, name string, fn func()) {
	id := t.begin(eval, parent, name)
	fn()
	t.end(id)
}

// evalSpans returns a copy of the spans of one evaluation.
func (t *tracer) evalSpans(eval int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Eval == eval {
			out = append(out, s)
		}
	}
	return out
}

// write stores every span as one JSON array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns, for every span ID in spans, the span's duration minus
// the part of its interval that its direct children cover. Children may
// nest, overlap each other (concurrent ranks) or stick out of the parent;
// only their union clipped to the parent counts.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals clipped to
// the parent's.
func covered(parent span, kids []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curLo, curHi, open = v.lo, v.hi, true
		case v.lo <= curHi:
			curHi = max(curHi, v.hi)
		default:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// selfByName sums self time (ns) per span name.
func selfByName(spans []span) map[string]int64 {
	self := selfTimes(spans)
	out := make(map[string]int64)
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}

// wallByName is the interval from the first start to the last end of the
// spans with each name: the wall-clock length of a collective phase run by
// several goroutines at once.
func wallByName(spans []span) map[string]int64 {
	lo := make(map[string]int64)
	hi := make(map[string]int64)
	for _, s := range spans {
		if v, ok := lo[s.Name]; !ok || s.Start < v {
			lo[s.Name] = s.Start
		}
		if s.End > hi[s.Name] {
			hi[s.Name] = s.End
		}
	}
	out := make(map[string]int64, len(lo))
	for n, v := range lo {
		out[n] = hi[n] - v
	}
	return out
}
