package sim

import (
	"bytes"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"bonsai/internal/grav"
	"bonsai/internal/obs"
)

// TestWalkGflopsZeroTime is the divide-by-zero regression: a rank that did
// work but whose walk time rounds to zero must report a finite (zero) rate,
// and can never poison the step aggregate.
func TestWalkGflopsZeroTime(t *testing.T) {
	rs := RankStats{Grav: grav.Stats{PP: 1000, PC: 1000}}
	if g := rs.WalkGflops(); g != 0 {
		t.Errorf("WalkGflops with zero walk time = %v, want 0", g)
	}
	agg := aggregate(0, []RankStats{rs, {}})
	if math.IsNaN(agg.WalkGflops) || math.IsInf(agg.WalkGflops, 0) {
		t.Errorf("aggregate WalkGflops not finite: %v", agg.WalkGflops)
	}
	if math.IsNaN(agg.AppGflops) || math.IsInf(agg.AppGflops, 0) {
		t.Errorf("aggregate AppGflops not finite: %v", agg.AppGflops)
	}
	if math.IsNaN(finiteRate(math.NaN())) || finiteRate(math.Inf(1)) != 0 || finiteRate(math.Inf(-1)) != 0 {
		t.Error("finiteRate must clamp NaN/±Inf to 0")
	}
	if finiteRate(1.5) != 1.5 {
		t.Error("finiteRate must pass finite values through")
	}
}

func TestDeriveOther(t *testing.T) {
	p := PhaseTimes{
		SortBuild: 4 * time.Millisecond, Domain: 2 * time.Millisecond,
		TreeProps: 4 * time.Millisecond,
		GravLocal: 5 * time.Millisecond, GravLET: 6 * time.Millisecond,
		NonHiddenComm: 7 * time.Millisecond,
		Total:         30 * time.Millisecond,
	}
	p.DeriveOther()
	if want := 2 * time.Millisecond; p.Other != want {
		t.Errorf("Other = %v, want %v", p.Other, want)
	}
	// Clamp: accounted phases exceeding Total (clock skew) must not go negative.
	p.Total = 10 * time.Millisecond
	p.DeriveOther()
	if p.Other != 0 {
		t.Errorf("Other = %v, want clamped 0", p.Other)
	}
}

// TestPhaseRowsSumToTotal checks the Table II invariant end to end: after a
// real step, every rank's phase rows (including the derived Other) sum to its
// Total.
func TestPhaseRowsSumToTotal(t *testing.T) {
	s, err := New(Config{Ranks: 4, Theta: 0.5, Eps: 0.05, WorkersPerRank: 2}, plummer(2000, 3))
	if err != nil {
		t.Fatal(err)
	}
	s.Step()
	for i, n := range s.nodes {
		p := n.r.stats.Times
		sum := p.Accounted() + p.Other
		if p.Other < 0 {
			t.Errorf("rank %d: negative Other %v", i, p.Other)
		}
		// Exact unless the clamp fired (sum > Total means skew ate Other).
		if diff := p.Total - sum; diff > 0 {
			t.Errorf("rank %d: rows sum to %v but Total is %v (missing %v)", i, sum, p.Total, diff)
		}
	}
}

// TestTracingIntegration runs a traced 8-rank simulation and checks every
// layer of the observability stack end to end: spans recorded on each rank,
// histograms fed, the Chrome trace exports and parses, the analysis finds a
// straggler, and the metrics stream round-trips. Run under -race (make race)
// this doubles as the concurrency test for recording from the receiver,
// builder, and compute goroutines at once.
func TestTracingIntegration(t *testing.T) {
	const ranks = 8
	rec := obs.New(ranks, 0)
	s, err := New(Config{Ranks: ranks, Theta: 0.5, Eps: 0.05, WorkersPerRank: 2, Obs: rec},
		plummer(4000, 4))
	if err != nil {
		t.Fatal(err)
	}
	stats := s.Step()
	s.Step()

	totalArrivals := 0
	for i := 0; i < ranks; i++ {
		rr := rec.Rank(i)
		spans := rr.Spans()
		if len(spans) == 0 {
			t.Fatalf("rank %d recorded no spans", i)
		}
		seen := map[obs.Phase]bool{}
		for _, sp := range spans {
			seen[sp.Phase] = true
		}
		for _, ph := range []obs.Phase{obs.PhaseSortBuild,
			obs.PhaseWalkLocal, obs.PhaseWalkDone, obs.PhaseBoundary, obs.PhaseIntegrate} {
			if !seen[ph] {
				t.Errorf("rank %d: no %v span", i, ph)
			}
		}
		if rr.Dropped() != 0 {
			t.Errorf("rank %d dropped %d spans at default capacity", i, rr.Dropped())
		}
	}

	m := rec.Metrics()
	if stats.LETsRecv > 0 {
		if got := m.LETArrivalHist().Count(); got == 0 {
			t.Error("LETs were received but the arrival histogram is empty")
		}
		if got := m.LETWalkHist().Count(); got == 0 {
			t.Error("LETs were walked but the walk-latency histogram is empty")
		}
	}
	if m.ListLenHist().Count() == 0 {
		t.Error("interaction-list histogram is empty")
	}
	if m.QueueDepthHist().Count() == 0 {
		t.Error("mailbox queue-depth histogram is empty")
	}
	if m.ImbalanceHist().Count() == 0 {
		t.Error("imbalance histogram is empty")
	}
	for _, a := range rec.Steps() {
		totalArrivals += a.ArrivalsSeen
	}
	if stats.LETsRecv > 0 && totalArrivals == 0 {
		t.Error("no LET arrivals measured against walk completion")
	}

	// Pair-bytes matrix: the traffic totals must agree with the global meter.
	var pair int64
	for from := 0; from < ranks; from++ {
		for to := 0; to < ranks; to++ {
			pair += s.World().PairBytes(from, to)
		}
	}
	if pair != s.World().TotalBytes() {
		t.Errorf("pair-bytes matrix sums to %d, total meter says %d", pair, s.World().TotalBytes())
	}

	// Chrome trace export → parse → analysis.
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	events, err := obs.ParseChromeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rep := obs.AnalyzeTrace(events)
	if rep.NumRanks != ranks {
		t.Errorf("trace analysis sees %d ranks, want %d", rep.NumRanks, ranks)
	}
	// A step is two evaluations only when it primes t=0; two Steps = 3 evals.
	if len(rep.Steps) != 3 {
		t.Errorf("trace analysis sees %d evaluations, want 3", len(rep.Steps))
	}
	for _, sr := range rep.Steps {
		if sr.Straggler < 0 || sr.Straggler >= ranks {
			t.Errorf("eval %d: straggler rank %d out of range", sr.Step, sr.Straggler)
		}
	}
	var repBuf bytes.Buffer
	rep.Format(&repBuf)
	if repBuf.Len() == 0 {
		t.Error("empty trace report")
	}

	// Metrics stream.
	steps := rec.Steps()
	if len(steps) != 3 {
		t.Fatalf("recorded %d step metrics, want 3", len(steps))
	}
	var mbuf bytes.Buffer
	if err := rec.WriteMetricsJSONL(&mbuf); err != nil {
		t.Fatal(err)
	}
	back, err := obs.ReadMetricsJSONL(&mbuf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(steps) {
		t.Errorf("metrics JSONL round-trip: %d records, want %d", len(back), len(steps))
	}
}

// TestTracingDoesNotChangeResults verifies the zero-interference contract:
// a single-rank run (deterministic: disjoint group writes, no LET arrival
// races) must be bitwise identical with tracing on and off, and a multi-rank
// run must agree to the same tolerance the seed's determinism test uses.
func TestTracingDoesNotChangeResults(t *testing.T) {
	run := func(ranks int, rec *obs.Recorder) ([]float64, []float64) {
		cfg := Config{Ranks: ranks, Theta: 0.5, Eps: 0.05, WorkersPerRank: 4, Obs: rec}
		s, err := New(cfg, plummer(2000, 5))
		if err != nil {
			t.Fatal(err)
		}
		s.Step()
		s.Step()
		acc, pot := s.Accelerations()
		flat := make([]float64, 0, 3*len(acc))
		for _, a := range acc {
			flat = append(flat, a.X, a.Y, a.Z)
		}
		return flat, pot
	}

	// 1 rank: bitwise.
	aOff, pOff := run(1, nil)
	aOn, pOn := run(1, obs.New(1, 0))
	for i := range aOff {
		if aOff[i] != aOn[i] {
			t.Fatalf("1-rank acc[%d] differs with tracing: %v vs %v", i, aOff[i], aOn[i])
		}
	}
	for i := range pOff {
		if pOff[i] != pOn[i] {
			t.Fatalf("1-rank pot[%d] differs with tracing: %v vs %v", i, pOff[i], pOn[i])
		}
	}

	// 8 ranks: LET arrival order varies between runs, so (like the seed's
	// TestDeterministicAcrossRuns) compare to FP-summation-order tolerance.
	aOff, _ = run(8, nil)
	aOn, _ = run(8, obs.New(8, 0))
	var sum2, ref2 float64
	for i := range aOff {
		d := aOff[i] - aOn[i]
		sum2 += d * d
		ref2 += aOff[i] * aOff[i]
	}
	if rms := math.Sqrt(sum2 / ref2); rms > 1e-9 {
		t.Errorf("8-rank traced run diverged from untraced: rms %v", rms)
	}
}

// TestDriversEmitOneSchema: a traced block-timestep run in-process and the
// same run as 4 Nodes over unix sockets, each Node with its own recorder,
// write per-rank records that merge into the same per-evaluation records.
// SerialLET keeps both trajectories bitwise equal, so the globally agreed
// block fields must match exactly. A ComputeForces walk rate must equal its
// merged record's, in-process and across the Nodes.
func TestDriversEmitOneSchema(t *testing.T) {
	const ranks = 4
	parts := concentrated(1200, 75)
	cfg := Config{
		Ranks: ranks, Theta: 0.5, Eps: 0.01, DT: 4e-3, DomainFreq: 2,
		SerialLET: true, BlockSteps: true, MaxRungs: 2,
	}
	sameRate := func(label string, stats, record float64) {
		t.Helper()
		if stats <= 0 || math.Abs(stats-record) > 1e-9*stats {
			t.Errorf("%s: ComputeForces walk rate %v Gflop/s, merged record %v", label, stats, record)
		}
	}

	in := cfg
	in.Obs = obs.New(ranks, 0)
	s, err := New(in, parts)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(3)
	st := s.ComputeForces()
	want := in.Obs.Steps()
	sameRate("in-process", st.WalkGflops, want[len(want)-1].WalkGflops)

	w := newTestSockWorld(t, "unix", ranks)
	recs := make([]*obs.Recorder, ranks)
	nodes := make([]*Node, ranks)
	for r := range nodes {
		c := cfg
		recs[r] = obs.New(ranks, 0)
		c.Obs = recs[r]
		if nodes[r], err = NewNode(c, w, r, SliceForRank(parts, r, ranks)); err != nil {
			t.Fatal(err)
		}
	}
	rs := make([]RankStats, ranks)
	var wg sync.WaitGroup
	for r, n := range nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				n.Step()
			}
			rs[r] = n.ComputeForces()
		}()
	}
	wg.Wait()
	exactlyEqual(t, gatherAll(nodes), s.Particles(), "nodes vs in-process")
	var perRank []obs.StepMetrics
	for _, rec := range recs {
		perRank = append(perRank, rec.Steps()...)
	}
	got := obs.MergeStepMetrics(perRank)
	sameRate("nodes", Aggregate(3, rs).WalkGflops, got[len(got)-1].WalkGflops)

	if len(got) != len(want) {
		t.Fatalf("nodes merge to %d records, in-process run has %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Step != w.Step || g.Ranks != w.Ranks || g.N != w.N || g.Substep != w.Substep ||
			g.TreeRebuilt != w.TreeRebuilt || g.ActiveN != w.ActiveN || !slices.Equal(g.RungPop, w.RungPop) {
			t.Errorf("record %d: nodes %+v\nin-process %+v", i, g, w)
		}
	}
	mid := 0
	for _, m := range want {
		if m.Substep > 0 && m.Substep < 1<<cfg.MaxRungs {
			mid++
		}
	}
	if mid == 0 {
		t.Errorf("no evaluation at a mid-step barrier in %d: the rungs never spread", len(want))
	}
}
