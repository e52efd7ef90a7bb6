package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"bonsai"
	"bonsai/internal/grav"
)

// fidelityTol bounds the relative difference between replayed and program
// accelerations: only the summation order of local and remote
// contributions may differ.
const fidelityTol = 1e-12

// minReplays is the least number of evaluations a traced run replays.
const minReplays = 2

// traced is the --trace 1 run. It repeats a three-step cycle until the time
// is up: a settle step (after the previous replay's cache disturbance, not
// counted), an untraced step, and a traced step, whose state is then
// captured and replayed layer by layer. Per-layer metrics are medians over
// the replayed evaluations; the sim.* metrics average every step's StepStats.
func (b *bench) traced(initial []bonsai.Particle) (result, error) {
	tr := newTracer()
	rp, err := newReplayer(tr, b.w, b.sockDir)
	if err != nil {
		return result{}, err
	}
	defer rp.close()

	var plain, traced, cpu []float64
	var steps []bonsai.StepStats
	var allocMB []float64
	var evals []evalResult
	start := time.Now()
	for time.Since(start) < time.Duration(b.o.seconds)*time.Second || len(evals) < minReplays || b.attempt < driftSteps {
		for phase := 0; phase < 3; phase++ {
			var m0, m1 runtime.MemStats
			if phase == 2 {
				runtime.ReadMemStats(&m0)
			}
			st, ms, c := b.timedStep()
			steps = append(steps, st)
			cpu = append(cpu, c)
			switch phase {
			case 1:
				plain = append(plain, ms)
			case 2:
				runtime.ReadMemStats(&m1)
				allocMB = append(allocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
				traced = append(traced, ms)
			}
		}
		owners, counts := b.r.owners()
		snap := snapshot{
			parts: b.r.particles(), owners: owners, counts: counts,
			acc: b.r.accelerations(), stats: steps[len(steps)-1],
		}
		res, err := rp.replay(len(evals), snap)
		if err != nil {
			b.fail("%v", err)
			break
		}
		if res.fidelityCheck {
			b.checkFidelity(len(evals), res, snap.stats)
		}
		evals = append(evals, res)
	}

	b.endChecks(initial)
	b.energyDrift()
	spansPath := filepath.Join(workDir, "out", "spans-"+b.w.name+".json")
	if err := tr.write(spansPath); err != nil {
		return result{}, fmt.Errorf("writing spans: %w", err)
	}
	b.logf("spans of %d replayed evaluations written to %s", len(evals), spansPath)
	if len(evals) == 0 {
		b.fail("no force evaluation was replayed")
		return b.result(map[string]metric{}), nil
	}

	m := layerValues(tr, evals)
	put := func(name string, v float64) { m[name] = metric{v, unitOf(name)} }
	put("ic.gen_s", median(b.icS))
	b.putStepStats(put, steps)
	put("sim.alloc_mb_per_step", median(allocMB))
	// Σ self time of the replayed evaluation (its root span, which runs on one
	// goroutine) over the program's CPU time per force evaluation (a block
	// step runs several).
	var evalMS []float64
	for _, res := range evals {
		evalMS = append(evalMS, res.evalMS)
	}
	cpuPerEval := mean(cpu) / max(1, m["sim.substeps"].Value)
	put("bench.layer_coverage", median(evalMS)/cpuPerEval)
	put("bench.trace_overhead", median(traced)/median(plain)-1)

	for _, d := range layerMetrics {
		b.logf("%-24s %14.6g %s", d.name, m[d.name].Value, d.unit)
	}
	return b.result(m), nil
}

// checkFidelity fails the run unless the replay reproduced the evaluation's
// interaction counts exactly and its accelerations to fidelityTol.
func (b *bench) checkFidelity(eval int, res evalResult, st bonsai.StepStats) {
	b.logf("replay %d: PP %d/%d PC %d/%d (replayed/program), max |Δa|/|a| %.3g",
		eval, res.pp, st.PP, res.pc, st.PC, res.maxRelAccErr)
	if res.pp != st.PP || res.pc != st.PC {
		b.fail("replay %d: interaction counts differ from the program's", eval)
	}
	if !(res.maxRelAccErr <= fidelityTol) {
		b.fail("replay %d: accelerations differ by %.3g (> %g)", eval, res.maxRelAccErr, fidelityTol)
	}
}

// layerValues turns the spans and results of every replayed evaluation into
// per-layer metrics (medians over evaluations).
func layerValues(tr *tracer, evals []evalResult) map[string]metric {
	per := make(map[string][]float64)
	add := func(name string, v float64) { per[name] = append(per[name], v) }
	for e, res := range evals {
		spans := tr.evalSpans(e)
		self := selfByName(spans)
		wall := wallByName(spans)
		ms := func(names ...string) float64 {
			var ns int64
			for _, n := range names {
				ns += self[n]
			}
			return float64(ns) / 1e6
		}
		add("domain.decompose_ms", float64(wall["domain.SampleDecompose"])/1e6)
		add("domain.exchange_ms", float64(wall["domain.Exchange"])/1e6)
		add("domain.migrated_frac", res.migratedFrac)
		add("domain.count_imbalance", res.countImb)
		add("octree.sortbuild_ms", ms("keys.MortonOf", "octree.SortBuildScratch"))
		add("octree.props_ms", ms("octree.ComputePropertiesParallel"))
		add("octree.refresh_ms", ms("octree.RefreshProperties"))
		add("octree.groups_ms", ms("octree.MakeGroupsScratch"))
		add("octree.traverse_ms", ms("octree.Tree.Collect"))
		add("octree.gather_ms", ms("grav.gather", "grav.Targets.Scatter"))
		walkMS := ms("octree.Tree.Walk")
		add("octree.walk_ms", walkMS)
		local := grav.Stats{PP: res.localPP, PC: res.localPC}
		add("octree.walk_gflops", local.Flops()/walkMS/1e6)
		add("octree.list_len", float64(res.lists)/float64(res.groups))
		ppMS, pcMS := ms("grav.PPBatch"), ms("grav.PCBatch")
		add("grav.pp_ns_per_inter", ppMS*1e6/float64(res.localPP))
		add("grav.pc_ns_per_inter", pcMS*1e6/float64(res.localPC))
		add("grav.kernel_gflops", local.Flops()/(ppMS+pcMS)/1e6)
		add("lettree.build_ms", ms("lettree.BuildFor"))
		add("lettree.walk_ms", ms("lettree.Walk"))
		add("lettree.boundary_ms", ms("lettree.BoundaryTree"))
		add("lettree.sufficient_frac", float64(res.boundaryUsed)/float64(res.pairs))
		var kb float64
		for _, nb := range res.letBytes {
			kb += float64(nb) / 1024
		}
		if len(res.letBytes) > 0 {
			kb /= float64(len(res.letBytes))
		}
		add("lettree.let_kb", kb)
		add("lettree.marshal_ms", ms("lettree.Marshal"))
		add("lettree.unmarshal_ms", ms("lettree.Unmarshal"))
		add("mpi.let_rtt_us", res.rttUS)
		add("mpi.allreduce_us", res.allreduceUS)
	}
	m := make(map[string]metric, len(per))
	for name, vs := range per {
		m[name] = metric{median(vs), unitOf(name)}
	}
	return m
}

// putStepStats reports the program's own counters (StepStats), averaged
// over every timed step of the traced run.
func (b *bench) putStepStats(put func(string, float64), steps []bonsai.StepStats) {
	var ms = func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	avg := func(f func(s bonsai.StepStats) float64) float64 {
		var sum float64
		for _, s := range steps {
			sum += f(s)
		}
		return sum / float64(len(steps))
	}
	put("grav.pp_per_particle", avg(func(s bonsai.StepStats) float64 { return s.PPPerParticle }))
	put("grav.pc_per_particle", avg(func(s bonsai.StepStats) float64 { return s.PCPerParticle }))
	put("sim.grav_local_ms", avg(func(s bonsai.StepStats) float64 { return ms(s.Times.GravLocal) }))
	put("sim.grav_let_ms", avg(func(s bonsai.StepStats) float64 { return ms(s.Times.GravLET) }))
	put("sim.nonhidden_comm_ms", avg(func(s bonsai.StepStats) float64 { return ms(s.Times.NonHiddenComm) }))
	put("sim.other_ms", avg(func(s bonsai.StepStats) float64 { return ms(s.Times.Other) }))
	put("sim.rank_imbalance", avg(func(s bonsai.StepStats) float64 {
		return float64(s.MaxTimes.Total) / float64(s.Times.Total)
	}))
	put("sim.overlap_frac", avg(func(s bonsai.StepStats) float64 { return s.OverlapFrac }))
	put("sim.lets_per_step", avg(func(s bonsai.StepStats) float64 { return float64(s.LETsSent) }))
	put("sim.walk_gflops", avg(func(s bonsai.StepStats) float64 { return s.WalkGflops }))
	put("sim.app_gflops", avg(func(s bonsai.StepStats) float64 { return s.AppGflops }))
	// Without block steps every step is one full evaluation.
	put("sim.substeps", avg(func(s bonsai.StepStats) float64 { return float64(max(1, s.Substeps)) }))
	put("sim.active_frac", avg(func(s bonsai.StepStats) float64 {
		if s.Substeps == 0 {
			return 1
		}
		return s.ActiveFrac
	}))
	put("sim.rebuild_frac", avg(func(s bonsai.StepStats) float64 {
		if s.Substeps == 0 {
			return 1
		}
		return float64(s.Rebuilds) / float64(s.Substeps)
	}))
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
