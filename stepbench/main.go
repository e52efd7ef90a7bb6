// Command stepbench is the repository's end-to-end step benchmark. It runs
// one named workload through the public simulation API (bonsai.New /
// Simulation.Step, or NewSocketWorld / NewNodeSimulation.Step), checks the
// physics, and prints its metrics; the last line of standard output is one
// JSON object. With --trace 1 it instead reports per-layer metrics from a
// replay of captured force evaluations (see README.md).
//
//	stepbench --workload mw_walk --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"bonsai"
)

// setupRepeats is how many times a run sets the workload up from scratch;
// setup_s reports the median.
const setupRepeats = 3

// minSteps is the least number of timed steps of a run: enough that the
// tail percentile lies above the median.
const minSteps = 2*tailMinBeyond + 1

// driftSteps is the number of timed steps energy_drift spans. The drift
// grows with the step count, so it is taken after a fixed count, not at the
// end of the run: otherwise a faster program would drift further in the same
// seconds and could fail the gate for being fast.
const driftSteps = minSteps

// workDir holds everything a run writes (spans, unix sockets), relative to
// the directory the benchmark runs from.
const workDir = ".bench_build"

type metricDef struct{ name, unit string }

// e2eMetrics are reported with --trace 0, in the final JSON line.
var e2eMetrics = []metricDef{
	{"step_ms_p50", "ms"},
	{"step_ms_tail", "ms"},
	{"cpu_ms_per_step", "ms"},
	{"setup_s", "s"},
	{"comm_mb_per_step", "MB"},
	{"peak_rss_mb", "MB"},
}

// accuracyMetrics are printed and gated with --trace 0 but stay out of the
// JSON line: force_rms_err is not measurable on every workload, and both
// vary with the seed far beyond any regression bound.
var accuracyMetrics = []metricDef{
	{"force_rms_err", "ratio"},
	{"energy_drift", "ratio"},
}

// layerMetrics are reported with --trace 1.
var layerMetrics = []metricDef{
	{"ic.gen_s", "s"},
	{"domain.decompose_ms", "ms"},
	{"domain.exchange_ms", "ms"},
	{"domain.migrated_frac", "ratio"},
	{"domain.count_imbalance", "ratio"},
	{"octree.sortbuild_ms", "ms"},
	{"octree.props_ms", "ms"},
	{"octree.refresh_ms", "ms"},
	{"octree.groups_ms", "ms"},
	{"octree.traverse_ms", "ms"},
	{"octree.gather_ms", "ms"},
	{"octree.walk_ms", "ms"},
	{"octree.walk_gflops", "Gflop/s"},
	{"octree.list_len", "count"},
	{"grav.pp_ns_per_inter", "ns"},
	{"grav.pc_ns_per_inter", "ns"},
	{"grav.kernel_gflops", "Gflop/s"},
	{"grav.pp_per_particle", "count"},
	{"grav.pc_per_particle", "count"},
	{"lettree.build_ms", "ms"},
	{"lettree.walk_ms", "ms"},
	{"lettree.boundary_ms", "ms"},
	{"lettree.sufficient_frac", "ratio"},
	{"lettree.let_kb", "KB"},
	{"lettree.marshal_ms", "ms"},
	{"lettree.unmarshal_ms", "ms"},
	{"mpi.let_rtt_us", "us"},
	{"mpi.allreduce_us", "us"},
	{"sim.grav_local_ms", "ms"},
	{"sim.grav_let_ms", "ms"},
	{"sim.nonhidden_comm_ms", "ms"},
	{"sim.other_ms", "ms"},
	{"sim.rank_imbalance", "ratio"},
	{"sim.overlap_frac", "ratio"},
	{"sim.lets_per_step", "count"},
	{"sim.walk_gflops", "Gflop/s"},
	{"sim.app_gflops", "Gflop/s"},
	{"sim.substeps", "count"},
	{"sim.active_frac", "ratio"},
	{"sim.rebuild_frac", "ratio"},
	{"sim.alloc_mb_per_step", "MB"},
	{"bench.layer_coverage", "ratio"},
	{"bench.trace_overhead", "ratio"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("stepbench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload name: mw_walk, mw_exchange or plummer_block_unix")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the generated initial conditions")
	fs.IntVar(&o.seconds, "seconds", 20, "length of the timed loop in seconds")
	fs.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a replayed evaluation")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace != 0
	w, err := findWorkload(o.workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stepbench:", err)
		return 2
	}
	b := &bench{w: w, o: o, out: stdout, sockDir: filepath.Join(workDir, "sock")}
	for _, d := range []string{b.sockDir, filepath.Join(workDir, "out")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "stepbench:", err)
			return 2
		}
	}
	res, err := b.run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "stepbench:", err)
		return 2
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stepbench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// bench is one run of one workload.
type bench struct {
	w       workload
	o       options
	out     io.Writer
	sockDir string

	r       runner
	eRef    float64 // energy after the warm-up steps
	eEnd    float64 // energy after driftSteps timed steps
	icS     []float64
	setupS  []float64
	errs    []string // correctness failures, printed and counted
	failed  int
	attempt int
}

func (b *bench) logf(format string, args ...any) {
	fmt.Fprintf(b.out, format+"\n", args...)
}

func (b *bench) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	b.errs = append(b.errs, msg)
	b.logf("FAIL %s", msg)
}

func (b *bench) run() (result, error) {
	b.logf("workload %s: N=%d ranks=%d seed=%d seconds=%d trace=%v",
		b.w.name, b.w.n, b.w.ranks, b.o.seed, b.o.seconds, b.o.trace)
	parts, err := b.setup()
	if err != nil {
		return result{}, err
	}
	defer b.r.close()
	if b.o.trace {
		return b.traced(parts)
	}
	return b.untraced(parts)
}

// setup generates the initial conditions, builds the simulation and runs the
// warm-up steps, setupRepeats times; the last set-up is kept for timing.
func (b *bench) setup() ([]bonsai.Particle, error) {
	var parts []bonsai.Particle
	for k := 0; k < setupRepeats; k++ {
		t0 := time.Now()
		ic := b.w.initialConditions(b.w.n, b.o.seed)
		b.icS = append(b.icS, time.Since(t0).Seconds())
		sockPrefix := filepath.Join(b.sockDir, fmt.Sprintf("%d-%d", os.Getpid(), k))
		r, err := newRunner(b.w, ic, sockPrefix)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		for i := 0; i < b.w.warmup; i++ {
			if err := checkStep(r.step(), b.w.n); err != nil {
				r.close()
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		// E_ref after the warm-up: Energy before a force evaluation panics.
		e := r.energy()
		b.setupS = append(b.setupS, time.Since(t0).Seconds())
		if k < setupRepeats-1 {
			if err := r.close(); err != nil {
				return nil, fmt.Errorf("set-up teardown: %w", err)
			}
			continue
		}
		b.r, b.eRef, parts = r, e, ic
	}
	return parts, nil
}

// timedStep runs and checks one top-level step, returning its wall time and
// process CPU time in milliseconds.
func (b *bench) timedStep() (st bonsai.StepStats, wallMS, cpuMS float64) {
	c0 := cpuSeconds()
	t0 := time.Now()
	st = b.r.step()
	wallMS = float64(time.Since(t0).Nanoseconds()) / 1e6
	cpuMS = (cpuSeconds() - c0) * 1e3
	b.attempt++
	if err := checkStep(st, b.w.n); err != nil {
		b.failed++
		b.fail("%v", err)
	}
	if b.attempt == driftSteps {
		b.eEnd = b.r.energy()
	}
	return st, wallMS, cpuMS
}

func (b *bench) untraced(initial []bonsai.Particle) (result, error) {
	var wall []float64
	var cpu float64
	comm0 := b.r.commBytes()
	start := time.Now()
	for time.Since(start) < time.Duration(b.o.seconds)*time.Second || len(wall) < minSteps {
		_, ms, c := b.timedStep()
		wall = append(wall, ms)
		cpu += c
	}
	steps := float64(len(wall))
	comm := float64(b.r.commBytes()-comm0) / 1e6 / steps
	rss := peakRSSMB() // before the end-of-run checks allocate their copies

	b.endChecks(initial)
	drift := b.energyDrift()
	m := map[string]metric{}
	put := func(name string, v float64) { m[name] = metric{v, unitOf(name)} }
	put("step_ms_p50", median(wall))
	tail, pct, _ := tailPercentile(wall, tailMinBeyond)
	put("step_ms_tail", tail)
	put("cpu_ms_per_step", cpu/steps)
	put("setup_s", median(b.setupS))
	put("comm_mb_per_step", comm)
	put("peak_rss_mb", rss)

	b.logf("steps timed: %d (step_ms_tail is p%.1f: %d samples lie above it)", len(wall), pct, tailMinBeyond)
	if b.w.unix {
		b.logf("comm_mb_per_step counts framed socket bytes")
	} else {
		b.logf("comm_mb_per_step counts the sizes the program declares to the in-process channel transport")
	}
	for _, d := range e2eMetrics {
		b.logf("%-18s %14.6g %s", d.name, m[d.name].Value, d.unit)
	}
	if acc := b.r.accelerations(); acc != nil {
		final := b.r.particles()
		err := forceRMSError(final, acc, b.w.cfg.Softening, b.w.cfg.GravConst, b.o.seed)
		b.logf("%-18s %14.6g ratio (bound %g)", "force_rms_err", err, b.w.maxForceErr)
		if !(err <= b.w.maxForceErr) {
			b.fail("force_rms_err %.3g exceeds %.3g", err, b.w.maxForceErr)
		}
	} else {
		b.logf("%-18s %14s ratio (NodeSimulation exposes no accelerations)", "force_rms_err", "n/a")
	}
	b.logf("%-18s %14.6g ratio (bound %g, over %d steps)", "energy_drift", drift, b.w.maxDrift, driftSteps)
	return b.result(m), nil
}

// energyDrift is |E_end − E_ref|/|E_ref| over driftSteps timed steps and
// fails the run above the workload's bound.
func (b *bench) energyDrift() float64 {
	drift := math.Abs(b.eEnd-b.eRef) / math.Abs(b.eRef)
	if !(drift <= b.w.maxDrift) {
		b.fail("energy_drift %.3g exceeds %.3g", drift, b.w.maxDrift)
	}
	return drift
}

// endChecks gates the final state against the initial conditions.
func (b *bench) endChecks(initial []bonsai.Particle) {
	if err := checkState(initial, b.r.particles()); err != nil {
		b.fail("%v", err)
	}
}

func (b *bench) result(m map[string]metric) result {
	return result{
		Correct:   len(b.errs) == 0,
		Attempted: b.attempt,
		Failed:    b.failed,
		Metrics:   m,
	}
}

func unitOf(name string) string {
	for _, list := range [][]metricDef{e2eMetrics, accuracyMetrics, layerMetrics} {
		for _, d := range list {
			if d.name == name {
				return d.unit
			}
		}
	}
	panic("stepbench: undeclared metric " + name)
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// peakRSSMB is the process's maximum resident set size (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}
