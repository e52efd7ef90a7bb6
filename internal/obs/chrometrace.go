package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// TraceEvent is one Chrome trace-event-format record (the JSON schema that
// chrome://tracing and Perfetto load). We emit "M" metadata events naming one
// process per rank and one thread per lane role, "X" complete events for
// spans, and "i" instant events for markers. Timestamps and durations are
// microseconds (float), per the format.
type TraceEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Ph    string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// chromeTrace is the JSON-object container form of the format.
type chromeTrace struct {
	TraceEvents     []TraceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit,omitempty"`
}

// tid maps a (lane, worker) pair to a stable thread id within a rank track:
// compute 0, builders 1+worker.
func tid(lane Lane, worker uint8) int {
	if lane == LaneCompute {
		return 0
	}
	return 1 + int(worker)
}

func tidName(t int) string {
	if t == 0 {
		return "compute"
	}
	return fmt.Sprintf("builder-%d", t-1)
}

// RankTrack is one rank's span set for the trace writer: the spans, the drop
// counter, and a time shift (nanoseconds) mapping the rank's recorder
// timebase onto the trace's common timebase. A single-process export uses
// shift 0 everywhere; the telemetry collector sets each worker's shift to its
// estimated clock offset, aligning all ranks on the collector clock.
type RankTrack struct {
	Rank    int    `json:"rank"`
	ShiftNS int64  `json:"shift_ns"`
	Dropped int64  `json:"dropped"`
	Spans   []Span `json:"spans"`
}

// WriteChromeTraceTracks writes any set of rank tracks as one Chrome
// trace-event JSON document: one track (pid) per rank named "rank N", one
// lane (tid) per thread role, each span's timestamp shifted by its track's
// ShiftNS. The output loads directly in chrome://tracing and ui.perfetto.dev.
func WriteChromeTraceTracks(w io.Writer, tracks []RankTrack) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)

	var events []TraceEvent
	for _, tr := range tracks {
		rank := tr.Rank
		// Metadata: process name + sort order, thread names for lanes seen.
		// The clock shift is recorded on the process metadata so a merged
		// trace documents how each rank was aligned.
		events = append(events,
			TraceEvent{Name: "process_name", Ph: "M", PID: rank,
				Args: map[string]any{"name": fmt.Sprintf("rank %d", rank), "clock_shift_ns": tr.ShiftNS}},
			TraceEvent{Name: "process_sort_index", Ph: "M", PID: rank,
				Args: map[string]any{"sort_index": rank}},
		)
		seen := map[int]bool{}
		for i := range tr.Spans {
			t := tid(tr.Spans[i].Lane, tr.Spans[i].Worker)
			if !seen[t] {
				seen[t] = true
				events = append(events,
					TraceEvent{Name: "thread_name", Ph: "M", PID: rank, TID: t,
						Args: map[string]any{"name": tidName(t)}},
					TraceEvent{Name: "thread_sort_index", Ph: "M", PID: rank, TID: t,
						Args: map[string]any{"sort_index": t}},
				)
			}
		}
		for i := range tr.Spans {
			s := &tr.Spans[i]
			ev := TraceEvent{
				Name: s.Phase.String(),
				Cat:  s.Lane.String(),
				TS:   float64(s.Start+tr.ShiftNS) / 1e3,
				PID:  rank,
				TID:  tid(s.Lane, s.Worker),
				Args: map[string]any{"step": int(s.Step), "arg": s.Arg},
			}
			if s.Phase.Instant() {
				ev.Ph = "i"
				ev.Scope = "t"
			} else {
				ev.Ph = "X"
				ev.Dur = float64(s.End-s.Start) / 1e3
			}
			events = append(events, ev)
		}
		if tr.Dropped > 0 {
			events = append(events, TraceEvent{
				Name: "spans_dropped", Ph: "i", Scope: "p", PID: rank, TID: 0,
				TS:   0,
				Args: map[string]any{"dropped": tr.Dropped},
			})
		}
	}
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].Ph == "M" != (events[j].Ph == "M") {
			return events[i].Ph == "M"
		}
		return events[i].TS < events[j].TS
	})
	if err := enc.Encode(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ms"}); err != nil {
		return err
	}
	return bw.Flush()
}

// Tracks returns the recorder's per-rank span sets (shift 0), the input shape
// of WriteChromeTraceTracks. Only call after the recording goroutines have
// been joined. Nil recorders return nil.
func (r *Recorder) Tracks() []RankTrack {
	if r == nil {
		return nil
	}
	tracks := make([]RankTrack, len(r.ranks))
	for rank := range r.ranks {
		rr := &r.ranks[rank]
		tracks[rank] = RankTrack{Rank: rank, Dropped: rr.Dropped(), Spans: rr.Spans()}
	}
	return tracks
}

// WriteChromeTrace exports every recorded span as Chrome trace-event JSON:
// one track (pid) per rank named "rank N", one lane (tid) per thread role.
// The output loads directly in chrome://tracing and ui.perfetto.dev.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	if r == nil {
		return fmt.Errorf("obs: tracing is not enabled")
	}
	return WriteChromeTraceTracks(w, r.Tracks())
}

// ParseChromeTrace reads a trace produced by WriteChromeTrace (or any
// object-form Chrome trace) back into its event list.
//
// Truncated documents — the artifact a SIGKILLed worker leaves mid-write —
// are not an error: every complete event of the traceEvents array is
// returned, and the torn tail is dropped. Input that is not a Chrome-trace
// object at all still reports an error.
func ParseChromeTrace(r io.Reader) ([]TraceEvent, error) {
	dec := json.NewDecoder(r)
	tok, err := dec.Token()
	if err != nil {
		return nil, fmt.Errorf("obs: invalid chrome trace: %w", err)
	}
	if d, ok := tok.(json.Delim); !ok || d != '{' {
		return nil, fmt.Errorf("obs: invalid chrome trace: not a JSON object")
	}
	var events []TraceEvent
	for {
		keyTok, err := dec.Token()
		if err != nil {
			return events, nil // truncated between keys: keep the prefix
		}
		if d, ok := keyTok.(json.Delim); ok && d == '}' {
			return events, nil
		}
		key, _ := keyTok.(string)
		if key != "traceEvents" {
			var skip json.RawMessage
			if err := dec.Decode(&skip); err != nil {
				return events, nil // truncated inside another value
			}
			continue
		}
		arrTok, err := dec.Token()
		if err != nil {
			return events, nil
		}
		if d, ok := arrTok.(json.Delim); !ok || d != '[' {
			return nil, fmt.Errorf("obs: invalid chrome trace: traceEvents is not an array")
		}
		for dec.More() {
			var ev TraceEvent
			if err := dec.Decode(&ev); err != nil {
				return events, nil // truncated mid-event: keep the prefix
			}
			events = append(events, ev)
		}
		if _, err := dec.Token(); err != nil { // closing ]
			return events, nil
		}
	}
}
