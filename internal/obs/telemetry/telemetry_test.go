package telemetry

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bonsai/internal/obs"
)

// fakeWorker is one in-test worker: a recorder with a distinct epoch and a
// telemetry server on a unix socket.
type fakeWorker struct {
	rec *obs.Recorder
	srv *Server
}

func startFakeWorker(t *testing.T, dir string, rank, ranks int, rec *obs.Recorder) *fakeWorker {
	t.Helper()
	ln, err := net.Listen("unix", filepath.Join(dir, fmt.Sprintf("tele%d.sock", rank)))
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(ln, ServerConfig{
		Rec: rec, Rank: rank, Ranks: ranks, KernelISA: "test-isa",
		PairBytes: func(to int) int64 { return int64(100 * (rank + to)) },
	})
	t.Cleanup(func() { srv.Close() })
	return &fakeWorker{rec: rec, srv: srv}
}

// stepRecord builds one per-rank step record the way sim.Node emits them.
func stepRecord(step, rank, ranks int, stepMS float64) obs.StepMetrics {
	return obs.StepMetrics{
		Step: step, Rank: rank, Ranks: ranks, N: 1000,
		MeanStepMS: stepMS, MaxStepMS: stepMS, Straggler: rank,
		WalkGflops: 1, AppGflops: 1, KernelISA: "test-isa",
		GravLocalMS: stepMS * 0.8, OtherMS: stepMS * 0.2,
	}
}

// TestCollectorAlignsStaggeredClocks is the tentpole's core property: two
// recorders whose epochs differ by ~60ms record a span at the SAME wall-clock
// instant; the collector's offset estimation must land both spans within 1ms
// of each other on the merged timeline (loopback probes resolve to tens of
// µs).
func TestCollectorAlignsStaggeredClocks(t *testing.T) {
	dir := t.TempDir()
	const ranks = 2
	rec0 := obs.New(ranks, 0)
	time.Sleep(60 * time.Millisecond) // stagger the epochs like forked workers
	rec1 := obs.New(ranks, 0)
	recs := []*obs.Recorder{rec0, rec1}

	// One wall-clock instant, observed through both recorders' epochs.
	start := time.Now()
	end := start.Add(2 * time.Millisecond)
	for rank, rec := range recs {
		rec.Rank(rank).Span(0, obs.PhaseWalkLocal, obs.LaneCompute, 0, start, end, 0)
		rec.AddStep(stepRecord(0, rank, ranks, 5))
		rec.AddStep(stepRecord(1, rank, ranks, 5))
	}

	var workers []*fakeWorker
	for rank, rec := range recs {
		w := startFakeWorker(t, dir, rank, ranks, rec)
		w.srv.MarkDone()
		workers = append(workers, w)
	}

	addrs := []string{filepath.Join(dir, "tele0.sock"), filepath.Join(dir, "tele1.sock")}
	col := NewCollector(CollectorConfig{
		Network: "unix", Addrs: addrs,
		PollEvery: 20 * time.Millisecond, Logf: t.Logf,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := col.Run(ctx); err != nil {
		t.Fatal(err)
	}

	// The offset estimates must recover the ~60ms epoch stagger.
	offs := col.Offsets()
	stagger := time.Duration(offs[1] - offs[0])
	if stagger < 40*time.Millisecond || stagger > 100*time.Millisecond {
		t.Errorf("offset difference = %v, want ~60ms epoch stagger", stagger)
	}
	if unc := col.MaxUncertainty(); unc > time.Millisecond {
		t.Errorf("max clock uncertainty = %v, want < 1ms on loopback", unc)
	}

	// Merged trace: both ranks present, and the simultaneous spans aligned
	// to within 1ms on the common timebase.
	var buf bytes.Buffer
	if err := col.WriteMergedTrace(&buf); err != nil {
		t.Fatal(err)
	}
	events, err := obs.ParseChromeTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	rep := obs.AnalyzeTrace(events)
	if rep.NumRanks != ranks {
		t.Fatalf("merged trace has %d ranks, want %d", rep.NumRanks, ranks)
	}
	if rep.MaxStartSkewUS > 1000 {
		t.Errorf("aligned start skew = %.1f µs, want < 1000", rep.MaxStartSkewUS)
	}

	// Merged JSONL: every (step, rank) record, ordered by step then rank.
	buf.Reset()
	if err := col.WriteMergedJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	steps, err := obs.ReadMetricsJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 4 {
		t.Fatalf("merged stream has %d records, want 4", len(steps))
	}
	for i, want := range []struct{ step, rank int }{{0, 0}, {0, 1}, {1, 0}, {1, 1}} {
		if steps[i].Step != want.step || steps[i].Rank != want.rank {
			t.Errorf("record %d = (step %d, rank %d), want (%d, %d)",
				i, steps[i].Step, steps[i].Rank, want.step, want.rank)
		}
	}

	// Prometheus exposition parses and carries the fleet gauges.
	buf.Reset()
	if err := col.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := ParseProm(&buf)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	for _, key := range []string{
		"bonsai_ranks",
		`bonsai_step{rank="0"}`, `bonsai_step{rank="1"}`,
		`bonsai_clock_offset_seconds{rank="0"}`,
		`bonsai_kernel_isa{rank="1",isa="test-isa"}`,
		`bonsai_pair_bytes{from="0",to="1"}`,
		"bonsai_straggler_alerts_total",
	} {
		if _, ok := samples[key]; !ok {
			t.Errorf("exposition is missing %s\nhave: %v", key, PromKeys(samples))
		}
	}
	if got := samples["bonsai_ranks"]; got != 2 {
		t.Errorf("bonsai_ranks = %v, want 2", got)
	}

	// The collector released the shutdown gates on its way out.
	for rank, w := range workers {
		if !w.srv.WaitShutdown(time.Second) {
			t.Errorf("rank %d was never released", rank)
		}
	}
}

func TestWatchdogFlagsStraggler(t *testing.T) {
	var lines []string
	wd := NewWatchdog(3, 2.0, func(format string, args ...any) {
		lines = append(lines, fmt.Sprintf(format, args...))
	})
	// Evaluation 0: balanced, no alert.
	for rank := 0; rank < 3; rank++ {
		wd.Record(stepRecord(0, rank, 3, 10))
	}
	if n := len(wd.Alerts()); n != 0 {
		t.Fatalf("balanced step fired %d alerts", n)
	}
	// Evaluation 1: rank 2 takes 5× the median.
	wd.Record(stepRecord(1, 0, 3, 10))
	wd.Record(stepRecord(1, 1, 3, 10))
	wd.Record(stepRecord(1, 2, 3, 50))
	alerts := wd.Alerts()
	if len(alerts) != 1 {
		t.Fatalf("got %d alerts, want 1", len(alerts))
	}
	a := alerts[0]
	if a.Step != 1 || a.Rank != 2 || a.StepMS != 50 || math.Abs(a.MedianMS-10) > 1e-9 {
		t.Errorf("alert = %+v, want step 1 rank 2, 50ms vs median 10ms", a)
	}
	if len(lines) != 1 || !strings.Contains(lines[0], "straggler alert") {
		t.Errorf("log lines = %q, want one straggler alert", lines)
	}
	// Re-delivery of an already-judged step must not re-alert.
	wd.Record(stepRecord(1, 2, 3, 50))
	if n := len(wd.Alerts()); n != 1 {
		t.Errorf("re-delivery re-fired: %d alerts", n)
	}
}

func TestWatchdogTwoRankRuleNeverSelfTrips(t *testing.T) {
	// With 2 ranks the median is the mean, so a mult >= 2 can never fire:
	// v > 2*(v+w)/2 requires v > v+w. Sanity-check no spurious alerts.
	wd := NewWatchdog(2, 2.0, nil)
	wd.Record(stepRecord(0, 0, 2, 1))
	wd.Record(stepRecord(0, 1, 2, 100))
	if n := len(wd.Alerts()); n != 0 {
		t.Errorf("two-rank watchdog fired %d alerts at mult 2", n)
	}
	// A tighter multiple does fire.
	wd = NewWatchdog(2, 1.5, nil)
	wd.Record(stepRecord(0, 0, 2, 1))
	wd.Record(stepRecord(0, 1, 2, 100))
	if n := len(wd.Alerts()); n != 1 {
		t.Errorf("two-rank watchdog at mult 1.5 fired %d alerts, want 1", n)
	}
}

func TestServerIncrementalSteps(t *testing.T) {
	dir := t.TempDir()
	rec := obs.New(1, 0)
	rec.AddStep(stepRecord(0, 0, 1, 5))
	startFakeWorker(t, dir, 0, 1, rec)
	cl := NewClient("unix", filepath.Join(dir, "tele0.sock"))

	steps, err := cl.Steps(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 1 {
		t.Fatalf("Steps(0) = %d records, want 1", len(steps))
	}
	rec.AddStep(stepRecord(1, 0, 1, 6))
	steps, err = cl.Steps(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 1 || steps[0].Step != 1 {
		t.Fatalf("Steps(1) = %+v, want just step 1", steps)
	}
	// Beyond-end from is an empty page, not an error.
	if steps, err = cl.Steps(99); err != nil || len(steps) != 0 {
		t.Fatalf("Steps(99) = %v, %v; want empty", steps, err)
	}
}

func TestServerPprofAndExpvarServe(t *testing.T) {
	dir := t.TempDir()
	rec := obs.New(1, 0)
	startFakeWorker(t, dir, 0, 1, rec)
	cl := NewClient("unix", filepath.Join(dir, "tele0.sock"))
	for _, path := range []string{"/debug/pprof/", "/debug/vars", "/metrics", "/info"} {
		resp, err := cl.hc.Get("http://worker" + path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if resp.StatusCode != 200 {
			t.Errorf("%s: status %d", path, resp.StatusCode)
		}
		resp.Body.Close()
	}
}

// TestPromPhasesSumToStep: the bonsai_phase_seconds rows of one per-rank
// record are the Table II rows, so they sum to bonsai_step_seconds.
func TestPromPhasesSumToStep(t *testing.T) {
	m := obs.StepMetrics{
		Step: 3, Rank: 1, Ranks: 2, MaxStepMS: 28,
		SortBuildMS: 1, DomainMS: 2, TreePropsMS: 3, GravLocalMS: 4,
		GravLETMS: 5, NonHiddenCommMS: 6, OtherMS: 7,
	}
	var buf bytes.Buffer
	p := newPromWriter(&buf)
	writeStepProm(p, m, m.Rank, "")
	if err := p.flush(); err != nil {
		t.Fatal(err)
	}
	samples, err := ParseProm(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	rows := 0
	for k, v := range samples {
		if strings.HasPrefix(k, "bonsai_phase_seconds{") {
			sum += v
			rows++
		}
	}
	step := samples[`bonsai_step_seconds{rank="1"}`]
	if rows != 7 || math.Abs(sum-step) > 1e-12 {
		t.Errorf("%d phase rows sum to %gs, step is %gs", rows, sum, step)
	}
}

func TestParsePromRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"bonsai_up\n",                    // no value
		"bonsai_up notanumber\n",         // bad value
		"# COMMENT something\n",          // unknown comment form
		"1bad_name 1\n",                  // invalid metric name
		`bonsai_up{rank=0} 1` + "\n",     // unquoted label value
		`bonsai_up{rank="0" 1` + "\n",    // unterminated label set
		`bonsai_up{="x"} 1` + "\n",       // empty label name
		`bonsai_up{a="1"b="2"} 1` + "\n", /* missing comma */
	} {
		if _, err := ParseProm(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseProm accepted %q", bad)
		}
	}
	good := "# HELP x_y help text\n# TYPE x_y gauge\nx_y{a=\"b\\\"c\",d=\"e\"} 4.5\nplain 1\n"
	samples, err := ParseProm(strings.NewReader(good))
	if err != nil {
		t.Fatalf("ParseProm rejected valid input: %v", err)
	}
	if len(samples) != 2 || samples["plain"] != 1 {
		t.Errorf("samples = %v", samples)
	}
}
