package obs

import (
	"bytes"
	"expvar"
	"math"
	"reflect"
	"strings"
	"testing"
)

// Satellite regression: a second simulation in the same process must replace
// the first recorder behind the "bonsai.obs" expvar, not keep serving the
// dead one through the process-wide sync.Once.
func TestPublishExpvarSwapsRecorder(t *testing.T) {
	first := New(1, 8)
	first.AddStep(StepMetrics{Step: 0, Ranks: 1})
	first.PublishExpvar()

	second := New(1, 8)
	second.AddStep(StepMetrics{Step: 0, Ranks: 1})
	second.AddStep(StepMetrics{Step: 1, Ranks: 1})
	second.AddStep(StepMetrics{Step: 2, Ranks: 1})
	second.PublishExpvar()

	v := expvar.Get("bonsai.obs")
	if v == nil {
		t.Fatal("bonsai.obs not published")
	}
	if s := v.String(); !strings.Contains(s, "\"steps\":3") {
		t.Errorf("expvar still serves the first recorder: %s", s)
	}
}

// A SIGKILLed worker leaves a JSONL file cut mid-line: the reader must return
// the complete prefix, not an error.
func TestReadMetricsJSONLTruncatedTail(t *testing.T) {
	var buf bytes.Buffer
	full := []StepMetrics{
		{Step: 0, Ranks: 2, MeanStepMS: 1},
		{Step: 1, Ranks: 2, MeanStepMS: 2},
		{Step: 2, Ranks: 2, MeanStepMS: 3},
	}
	if err := WriteStepMetricsJSONL(&buf, full); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	// Cut inside the final line at several depths.
	lastLine := bytes.LastIndexByte(data[:len(data)-1], '\n') + 1
	for _, cut := range []int{lastLine + 1, lastLine + 10, len(data) - 2} {
		got, err := ReadMetricsJSONL(bytes.NewReader(data[:cut]))
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if len(got) != 2 || !reflect.DeepEqual(got[0], full[0]) || !reflect.DeepEqual(got[1], full[1]) {
			t.Fatalf("cut at %d: got %d records, want the 2-record prefix", cut, len(got))
		}
	}

	// A final line that is complete JSON but missing its newline still counts.
	got, err := ReadMetricsJSONL(bytes.NewReader(data[:len(data)-1]))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("newline-less final record dropped: got %d records, want 3", len(got))
	}

	// A malformed line that WAS fully written is corruption, not truncation.
	if _, err := ReadMetricsJSONL(strings.NewReader("{\"step\":0}\ngarbage\n{\"step\":1}\n")); err == nil {
		t.Error("fully-written garbage line must error")
	}
}

// Every byte-level prefix of a valid trace must parse to a prefix of its
// event list (or error for prefixes too short to be a trace object) — the
// exact mid-write artifact a killed worker leaves.
func TestParseChromeTraceTruncated(t *testing.T) {
	r := New(2, 16)
	for rank := 0; rank < 2; rank++ {
		rr := r.Rank(rank)
		for step := 0; step < 3; step++ {
			rr.push(step, PhaseWalkLocal, LaneCompute, 0, int64(step*1000), int64(step*1000+500), 0)
		}
	}
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	full, err := ParseChromeTrace(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(full) == 0 {
		t.Fatal("empty full parse")
	}

	for cut := 0; cut <= len(data); cut++ {
		got, err := ParseChromeTrace(bytes.NewReader(data[:cut]))
		if err != nil {
			continue // too short to even be a trace object: fine
		}
		if len(got) > len(full) {
			t.Fatalf("cut at %d: %d events, more than the full %d", cut, len(got), len(full))
		}
		for i := range got {
			if got[i].Name != full[i].Name || got[i].TS != full[i].TS || got[i].PID != full[i].PID {
				t.Fatalf("cut at %d: event %d is not a prefix of the full parse", cut, i)
			}
		}
		if cut == len(data) && len(got) != len(full) {
			t.Fatalf("full input parsed %d events, want %d", len(got), len(full))
		}
	}

	// Outright garbage still errors.
	if _, err := ParseChromeTrace(strings.NewReader("not json at all")); err == nil {
		t.Error("garbage input must error")
	}
	if _, err := ParseChromeTrace(strings.NewReader(`[1,2,3]`)); err == nil {
		t.Error("non-object input must error")
	}
}

func TestMergeStepMetrics(t *testing.T) {
	perRank := []StepMetrics{
		{Step: 0, Rank: 0, Ranks: 2, N: 500, MeanStepMS: 10, MaxStepMS: 10, Straggler: 0,
			LETsRecv: 1, LETsOverlapped: 1, OverlapFrac: 1, ArrivalsSeen: 1, WorstArrivalMS: -2,
			WalkGflops: 5, AppGflops: 4, KernelISA: "x", GravLocalMS: 8},
		{Step: 0, Rank: 1, Ranks: 2, N: 500, MeanStepMS: 30, MaxStepMS: 30, Straggler: 1,
			LETsRecv: 1, LETsOverlapped: 0, ArrivalsSeen: 1, WorstArrivalMS: 5,
			WalkGflops: 1.25, AppGflops: 1, KernelISA: "x", GravLocalMS: 24},
	}
	merged := MergeStepMetrics(perRank)
	if len(merged) != 1 {
		t.Fatalf("got %d merged records, want 1", len(merged))
	}
	m := merged[0]
	if m.Ranks != 2 || m.N != 1000 {
		t.Errorf("ranks/N = %d/%d, want 2/1000", m.Ranks, m.N)
	}
	if m.MeanStepMS != 20 || m.MaxStepMS != 30 || m.Straggler != 1 {
		t.Errorf("mean/max/straggler = %v/%v/%d, want 20/30/1", m.MeanStepMS, m.MaxStepMS, m.Straggler)
	}
	if m.ImbalancePct != 50 {
		t.Errorf("imbalance = %v%%, want 50", m.ImbalancePct)
	}
	if m.LETsRecv != 2 || m.LETsOverlapped != 1 || m.OverlapFrac != 0.5 {
		t.Errorf("LET counters = %d/%d/%v, want 2/1/0.5", m.LETsRecv, m.LETsOverlapped, m.OverlapFrac)
	}
	if m.WorstArrivalMS != 5 || m.ArrivalsSeen != 2 {
		t.Errorf("arrivals = %v/%d, want 5/2", m.WorstArrivalMS, m.ArrivalsSeen)
	}
	// The ranks are imbalanced: 40 and 30 Gflop/s·ms of work over 8 and
	// 24 ms walks. The aggregate walk rate is the 70 total over the 16 ms
	// mean walk (sim.Aggregate's meaning), not the 6.25 sum of the per-rank
	// rates; the application rate is the total over the 30 ms slowest step.
	if m.WalkGflops != 4.375 {
		t.Errorf("walk rate = %v, want total flops over the mean walk, 4.375 Gflop/s", m.WalkGflops)
	}
	if want := 70.0 / 30; math.Abs(m.AppGflops-want) > 1e-12 {
		t.Errorf("app rate = %v, want %v", m.AppGflops, want)
	}
	if m.GravLocalMS != 16 {
		t.Errorf("grav_local = %v ms, want the 16 ms mean", m.GravLocalMS)
	}

	// Already-aggregated records (one per step) pass through untouched.
	agg := []StepMetrics{{Step: 0, Ranks: 4, MeanStepMS: 7, MaxStepMS: 9, Straggler: 2}}
	if got := MergeStepMetrics(agg); len(got) != 1 || !reflect.DeepEqual(got[0], agg[0]) {
		t.Errorf("aggregated record did not pass through: %+v", got)
	}
}
