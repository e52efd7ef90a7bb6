// Package sim is the parallel gravitational tree-code: the paper's Bonsai
// pipeline running over the in-process message-passing runtime, one
// simulated GPU-equipped node per rank.
//
// Every step each rank executes, with phase timers matching Table II:
//
//  1. global bounding box (collective) and SFC key grid
//  2. domain update: two-stage sampling decomposition over Peano–Hilbert
//     keys, flop-weighted with a 30% particle cap, and all-to-all particle
//     exchange
//  3. Morton sort of local particles ("Sorting SFC")
//  4. octree construction ("Tree-construction")
//  5. multipole computation ("Tree-properties")
//  6. gravity: every rank pushes its boundary tree to every peer and a full
//     LET to each peer its boundary tree cannot serve; remote forces are
//     computed from each boundary tree or LET ("Compute gravity Local-tree" /
//     "Compute gravity LETs" / "Non-hidden LET comm")
//  7. second-order leapfrog (KDK) integration
//
// The gravity phase runs that one exchange under two schedules. The default
// overlaps it with the local tree-walk: a LET-builder pool builds and pushes
// outgoing LETs as peers' boundary trees arrive, and the compute thread polls
// the mailbox between local-walk chunks, walking each arrived LET at once.
// Config.SerialLET removes all overlap (allgather, builds before the walk,
// receives after it in ascending peer order) and is bitwise reproducible:
// the oracle the overlapped schedule is tested against.
//
// Forces are independent of the rank count up to multipole acceptance error,
// which the test suite verifies against direct summation.
package sim

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"bonsai/internal/body"
	"bonsai/internal/domain"
	"bonsai/internal/mpi"
	"bonsai/internal/obs"
	"bonsai/internal/vec"
)

// Config are the tunables of a simulation. Zero values select defaults.
type Config struct {
	Ranks          int     // simulated MPI processes (default 1)
	WorkersPerRank int     // compute workers per rank (default 1)
	Theta          float64 // opening angle (default 0.4, the paper's choice)
	Eps            float64 // Plummer softening length (default 0.01)
	DT             float64 // leapfrog time step (default 1e-3)
	NLeaf          int     // max particles per leaf (default 16)
	NGroup         int     // target group size (default 64)
	BoundaryDepth  int     // boundary-tree depth (default 4)
	DomainFreq     int     // steps between domain updates (default 4)
	PX             int     // decomposition DD-process count (0 = auto)
	SnapLevel      int     // snap domain bounds to level-k octree cells (0 = off)

	// BlockSteps enables hierarchical power-of-two block timesteps: each
	// particle integrates at DT/2^rung with the rung chosen from the
	// acceleration criterion dt_i = EtaDT*sqrt(Eps/|a_i|), and a top-level
	// step becomes a sequence of substeps in which only the active rung
	// block gets forces while every other particle drifts. Across substeps
	// the octree is reused: multipoles are refreshed on the drifted
	// positions and the tree is rebuilt only at top-of-step boundaries or
	// when drift exceeds a fraction of the smallest leaf cell. Off (the
	// default) keeps the global-dt leapfrog bit-for-bit.
	BlockSteps bool
	// MaxRungs caps the rung hierarchy: the finest per-particle step is
	// DT/2^MaxRungs and a top-level step runs at most 2^MaxRungs substeps.
	// 0 (one shared block) makes the block path bitwise-identical to the
	// global-dt leapfrog. Only meaningful with BlockSteps.
	MaxRungs int
	// EtaDT is the accuracy parameter of the timestep criterion
	// dt_i = EtaDT*sqrt(Eps/|a_i|) (default 0.1). Only meaningful with
	// BlockSteps and MaxRungs > 0.
	EtaDT float64

	// G is the gravitational constant of the unit system (default 1).
	// Milky Way models in galactic units (kpc, km/s, 1e10 M⊙) need
	// units.G = 43007.1. Forces are linear in G, so it scales the
	// accelerations and potentials after each force evaluation.
	G float64

	// External, if non-nil, adds a static analytic field to the particle
	// self-gravity: the paper's §I "type 1" simulations (analytic dark
	// halo + live disk). It must be thread-safe; it receives a position
	// and returns the acceleration and specific potential of the field.
	// The returned values are NOT scaled by G (supply physical values).
	External func(pos vec.V3) (acc vec.V3, pot float64)

	// LETWorkers sizes each rank's LET-builder pool (the paper's
	// communication-thread group). 0 selects max(2, WorkersPerRank),
	// capped at the number of destination ranks.
	LETWorkers int

	// LETBudget, when positive, caps the number of LET constructions
	// running concurrently across the whole process (all ranks, all
	// in-process simulations) via a shared semaphore. Oversubscribed
	// many-rank runs — 64 simulated ranks on an 8-core host — otherwise
	// spawn per-rank builder pools that starve the walk workers. 0 (the
	// default) keeps the per-rank LETWorkers sizing with no global cap.
	LETBudget int

	// SerialLET disables all communication/compute overlap in the gravity
	// phase: boundary trees are allgathered, outgoing LETs are built and
	// pushed on the compute thread before the local tree-walk, and incoming
	// ones are received in ascending peer order only after it completes.
	// The result is bitwise reproducible; it is the oracle for the default
	// overlapped schedule and the non-overlapped baseline for
	// BenchmarkOverlap.
	SerialLET bool

	// Obs, if non-nil, enables event-level tracing and metrics: every rank
	// records phase spans and gravity-pipeline events (LET build/send/
	// recv/walk, arrivals vs local-walk completion) into the recorder's
	// preallocated per-rank buffers, the MPI layer meters queue depth and
	// per-pair bytes, and a per-evaluation metrics record is appended after
	// every force computation. The recorder must have been created for
	// exactly Ranks ranks. nil (the default) disables all of it at the
	// cost of a single branch per record point; results are unaffected
	// either way.
	Obs *obs.Recorder
}

// letBuilders returns the LET-builder pool size for dests destination ranks.
func (c *Config) letBuilders(dests int) int {
	if dests == 0 {
		return 0
	}
	w := c.LETWorkers
	if w <= 0 {
		w = c.WorkersPerRank
		if w < 2 {
			w = 2
		}
	}
	if c.LETBudget > 0 && w > c.LETBudget {
		w = c.LETBudget // pool larger than the global budget would just idle
	}
	if w > dests {
		w = dests
	}
	return w
}

func (c Config) withDefaults() Config {
	if c.Ranks <= 0 {
		c.Ranks = 1
	}
	if c.WorkersPerRank <= 0 {
		c.WorkersPerRank = 1
	}
	if c.Theta <= 0 {
		c.Theta = 0.4
	}
	if c.Eps <= 0 {
		c.Eps = 0.01
	}
	if c.DT == 0 {
		c.DT = 1e-3
	}
	if c.NLeaf <= 0 {
		c.NLeaf = 16
	}
	if c.NGroup <= 0 {
		c.NGroup = 64
	}
	if c.BoundaryDepth <= 0 {
		c.BoundaryDepth = 4
	}
	if c.DomainFreq <= 0 {
		c.DomainFreq = 4
	}
	if c.G == 0 {
		c.G = 1
	}
	if c.EtaDT <= 0 {
		c.EtaDT = 0.1
	}
	return c
}

// Validate rejects configurations that would silently simulate garbage:
// non-finite or negative values of the numeric tunables (zero means "use the
// default" and stays legal), and out-of-range rung caps. New and NewNode call
// it before filling defaults.
func (c Config) Validate() error {
	check := func(name string, v float64) error {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("sim: config %s = %v is not finite", name, v)
		}
		if v < 0 {
			return fmt.Errorf("sim: config %s = %v is negative", name, v)
		}
		return nil
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"DT", c.DT}, {"Eps", c.Eps}, {"Theta", c.Theta}, {"EtaDT", c.EtaDT}, {"G", c.G}} {
		if err := check(f.name, f.v); err != nil {
			return err
		}
	}
	if c.MaxRungs < 0 || c.MaxRungs > 16 {
		return fmt.Errorf("sim: config MaxRungs = %d outside [0, 16]", c.MaxRungs)
	}
	return nil
}

// Simulation is a running N-body system distributed over simulated ranks.
type Simulation struct {
	cfg   Config
	world *mpi.World
	ranks []*rank
	step  int
	evals int // completed force evaluations (tracing sequence number)
	time  float64
	first bool // the t=0 priming evaluation is still due
	// primed: the priming evaluation ran this step's domain epoch, so the
	// step's post-drift evaluation skips it (global-dt path only).
	primed bool
}

// New distributes the particles over cfg.Ranks simulated processes. The
// initial placement is an arbitrary even split; the first step's domain
// update moves every particle to its Hilbert-order owner.
func New(cfg Config, parts []body.Particle) (*Simulation, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if len(parts) == 0 {
		return nil, fmt.Errorf("sim: no particles")
	}
	if cfg.Ranks > len(parts) {
		return nil, fmt.Errorf("sim: %d ranks for %d particles", cfg.Ranks, len(parts))
	}
	for i := range parts {
		if !parts[i].Pos.IsFinite() || !parts[i].Vel.IsFinite() ||
			math.IsNaN(parts[i].Mass) || math.IsInf(parts[i].Mass, 0) || parts[i].Mass < 0 {
			return nil, fmt.Errorf("sim: particle %d (id %d) has non-finite or negative state", i, parts[i].ID)
		}
	}
	if cfg.Obs != nil && cfg.Obs.Ranks() != cfg.Ranks {
		return nil, fmt.Errorf("sim: obs recorder built for %d ranks, simulation has %d",
			cfg.Obs.Ranks(), cfg.Ranks)
	}
	s := &Simulation{
		cfg:   cfg,
		world: mpi.NewWorld(cfg.Ranks),
		first: true,
	}
	if cfg.Obs != nil {
		s.world.EnableObs(cfg.Obs.Metrics().QueueDepthHist())
		s.world.ObserveFrameBytes(cfg.Obs.Metrics().FrameBytesHist())
	}
	for r := 0; r < cfg.Ranks; r++ {
		lo := r * len(parts) / cfg.Ranks
		hi := (r + 1) * len(parts) / cfg.Ranks
		local := make([]body.Particle, hi-lo)
		copy(local, parts[lo:hi])
		s.ranks = append(s.ranks, &rank{
			cfg:   &s.cfg,
			comm:  s.world.Comm(r),
			parts: local,
			dec:   domain.Uniform(cfg.Ranks),
			obs:   cfg.Obs.Rank(r),
			met:   cfg.Obs.Metrics(),
		})
	}
	return s, nil
}

// Obs returns the tracing recorder, or nil when tracing is disabled.
func (s *Simulation) Obs() *obs.Recorder { return s.cfg.Obs }

// Config returns the effective (default-filled) configuration.
func (s *Simulation) Config() Config { return s.cfg }

// World exposes the message-passing runtime, for traffic accounting.
func (s *Simulation) World() *mpi.World { return s.world }

// Time returns the current simulation time.
func (s *Simulation) Time() float64 { return s.time }

// StepCount returns the number of completed steps.
func (s *Simulation) StepCount() int { return s.step }

// parallel runs fn on every rank concurrently and waits.
func (s *Simulation) parallel(fn func(r *rank)) {
	var wg sync.WaitGroup
	for _, r := range s.ranks {
		wg.Add(1)
		go func(r *rank) {
			defer wg.Done()
			fn(r)
		}(r)
	}
	wg.Wait()
}

// forces runs the distributed force pipeline on all ranks. domainUpdate
// selects whether this evaluation re-decomposes and exchanges particles; all
// ranks must see the same value (the decomposition is collective).
func (s *Simulation) forces(domainUpdate bool) []RankStats {
	eval := s.evals
	s.evals++
	s.parallel(func(r *rank) { r.stepForces(s.step, eval, domainUpdate) })
	stats := make([]RankStats, len(s.ranks))
	for i, r := range s.ranks {
		stats[i] = r.stats
	}
	s.recordStepMetrics(eval, stats, nil)
	return stats
}

// recordStepMetrics appends one per-evaluation record to the tracing
// recorder's metrics stream and feeds the imbalance histogram. be carries
// the block-timestep diagnostics of a substep evaluation (nil on the
// global-dt path). No-op when tracing is disabled.
func (s *Simulation) recordStepMetrics(eval int, rs []RankStats, be *blockEval) {
	rec := s.cfg.Obs
	if rec == nil {
		return
	}
	agg := aggregate(eval, rs)
	straggler := 0
	var maxTotal time.Duration
	arrivals := 0
	worst := time.Duration(math.MinInt64)
	for i := range rs {
		if rs[i].Times.Total > maxTotal {
			maxTotal = rs[i].Times.Total
			straggler = i
		}
		if rs[i].ArrivalsSeen > 0 {
			arrivals += rs[i].ArrivalsSeen
			if rs[i].WorstArrival > worst {
				worst = rs[i].WorstArrival
			}
		}
	}
	worstMS := 0.0
	if arrivals > 0 {
		worstMS = float64(worst) / 1e6
	}
	imbPct := 0.0
	if agg.Times.Total > 0 {
		imbPct = (float64(agg.MaxTimes.Total)/float64(agg.Times.Total) - 1) * 100
	}
	rec.Metrics().ImbalanceHist().Observe(int64(agg.MaxTimes.Total - agg.Times.Total))
	m := obs.StepMetrics{
		Step:            eval,
		Ranks:           agg.Ranks,
		N:               agg.N,
		MeanStepMS:      agg.Times.Total.Seconds() * 1e3,
		MaxStepMS:       agg.MaxTimes.Total.Seconds() * 1e3,
		ImbalancePct:    imbPct,
		Straggler:       straggler,
		NonHiddenCommMS: agg.Times.NonHiddenComm.Seconds() * 1e3,
		OverlapFrac:     agg.OverlapFrac,
		LETsRecv:        agg.LETsRecv,
		LETsOverlapped:  agg.LETsOverlapped,
		ArrivalsSeen:    arrivals,
		WorstArrivalMS:  worstMS,
		WalkGflops:      agg.WalkGflops,
		AppGflops:       agg.AppGflops,
		KernelISA:       agg.KernelISA,
		SortBuildMS:     agg.Times.SortBuild.Seconds() * 1e3,
		DomainMS:        agg.Times.Domain.Seconds() * 1e3,
		TreePropsMS:     agg.Times.TreeProps.Seconds() * 1e3,
		GravLocalMS:     agg.Times.GravLocal.Seconds() * 1e3,
		GravLETMS:       agg.Times.GravLET.Seconds() * 1e3,
		OtherMS:         agg.Times.Other.Seconds() * 1e3,
	}
	if be != nil {
		m.Substep = be.boundary
		m.TreeRebuilt = be.rebuilt
		if be.totalN > 0 {
			m.ActiveN = be.activeN
			m.ActiveFrac = float64(be.activeN) / float64(be.totalN)
		}
		m.RungPop = be.rungPop
	}
	rec.AddStep(m)
}

// domainDue reports whether the current step is a domain-update epoch.
func (s *Simulation) domainDue() bool { return s.step%s.cfg.DomainFreq == 0 }

// Step advances the system by one leapfrog step (kick-drift-kick) and
// returns the aggregated statistics of the force computation. With
// Config.BlockSteps the step runs as a sequence of block-timestep substeps
// (see block.go); the returned stats then sum every substep evaluation.
func (s *Simulation) Step() StepStats {
	if s.cfg.BlockSteps {
		return s.stepBlock()
	}
	s.prime()
	dt := s.cfg.DT
	// Kick half + drift full (uses accelerations from the previous force
	// evaluation, which are aligned with each rank's current particle order).
	s.parallel(func(r *rank) {
		t0 := time.Now()
		for i := range r.parts {
			r.parts[i].Vel = r.parts[i].Vel.Add(r.acc[i].Scale(dt / 2))
			r.parts[i].Pos = r.parts[i].Pos.Add(r.parts[i].Vel.Scale(dt))
		}
		r.obs.Span(s.evals, obs.PhaseIntegrate, obs.LaneCompute, 0, t0, time.Now(), 0)
	})
	// New forces at t+dt. If the t=0 priming evaluation just ran the
	// domain update, positions have only drifted within the same step, so
	// the decomposition is still fresh: skip the second update (the seed
	// code re-decomposed and re-exchanged every particle twice at step 0).
	rs := s.forces(s.domainDue() && !s.primed)
	s.primed = false
	// Kick half. The span is tagged with the evaluation whose accelerations
	// it applies (the one that just ran), so traces never mint an evaluation
	// ID that has no force phase.
	s.parallel(func(r *rank) {
		t0 := time.Now()
		for i := range r.parts {
			r.parts[i].Vel = r.parts[i].Vel.Add(r.acc[i].Scale(dt / 2))
		}
		r.obs.Span(s.evals-1, obs.PhaseIntegrate, obs.LaneCompute, 0, t0, time.Now(), 1)
	})
	s.step++
	s.time += dt
	return aggregate(s.step, rs)
}

// Run advances n steps and returns the per-step statistics.
func (s *Simulation) Run(n int) []StepStats {
	out := make([]StepStats, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, s.Step())
	}
	return out
}

// prime runs the t=0 priming force evaluation if it is still due: Step,
// ComputeForces and Energy all need accelerations and potentials to exist.
// It carries the current step's domain epoch, which the step's own
// post-drift evaluation then skips. Returns the priming evaluation's
// per-rank stats, or nil when it had already run.
func (s *Simulation) prime() []RankStats {
	if !s.first {
		return nil
	}
	s.first = false
	if s.cfg.BlockSteps {
		evalBase, step := s.evals, s.step
		s.parallel(func(r *rank) { r.blockPrime(step, evalBase) })
		return s.recordBlockEvals()
	}
	s.primed = true
	return s.forces(s.domainDue())
}

// ComputeForces runs the force pipeline once without advancing time. Useful
// for scaling measurements (the paper's benchmarks time force iterations):
// every call runs the full pipeline, including the domain update when the
// current step is an update epoch. The first call is the priming evaluation
// a following Step would otherwise run.
func (s *Simulation) ComputeForces() StepStats {
	if rs := s.prime(); rs != nil {
		return aggregate(s.step, rs)
	}
	rs := s.forces(s.domainDue())
	if s.cfg.BlockSteps && s.cfg.MaxRungs > 0 {
		// The full rebuild reordered (and may have exchanged) the particles:
		// re-anchor the tree-reuse drift bound to the new tree.
		s.parallel(func(r *rank) { r.trackBuild() })
	}
	return aggregate(s.step, rs)
}

// Particles gathers all particles, sorted by ID, with their current state.
func (s *Simulation) Particles() []body.Particle {
	var all []body.Particle
	for _, r := range s.ranks {
		all = append(all, r.parts...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	return all
}

// Accelerations gathers the most recent accelerations and potentials,
// ordered to match Particles(). The potential is the physical specific
// potential each particle sits in: self-gravity plus the external analytic
// field when Config.External is set.
func (s *Simulation) Accelerations() ([]vec.V3, []float64) {
	type rec struct {
		id  int64
		acc vec.V3
		pot float64
	}
	var all []rec
	for _, r := range s.ranks {
		ext := len(r.extPot) == len(r.parts) && len(r.extPot) > 0
		for i := range r.parts {
			p := r.pot[i]
			if ext {
				p += r.extPot[i]
			}
			all = append(all, rec{r.parts[i].ID, r.acc[i], p})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].id < all[j].id })
	acc := make([]vec.V3, len(all))
	pot := make([]float64, len(all))
	for i, a := range all {
		acc[i] = a.acc
		pot[i] = a.pot
	}
	return acc, pot
}

// Energy returns the total kinetic and potential energy from the most recent
// force evaluation; before the first step it runs the priming evaluation,
// so it reports the initial state. The pairwise self-gravity potential is
// halved (each pair is counted twice by the per-particle sums); the
// external-field potential, if any, enters at full weight.
func (s *Simulation) Energy() (kin, pot float64) {
	s.prime()
	for _, r := range s.ranks {
		ext := len(r.extPot) == len(r.parts) && len(r.extPot) > 0
		for i := range r.parts {
			kin += 0.5 * r.parts[i].Mass * r.parts[i].Vel.Norm2()
			pot += 0.5 * r.parts[i].Mass * r.pot[i]
			if ext {
				pot += r.parts[i].Mass * r.extPot[i]
			}
		}
	}
	return kin, pot
}

// Momentum returns the total linear momentum.
func (s *Simulation) Momentum() vec.V3 {
	var p vec.V3
	for _, r := range s.ranks {
		for i := range r.parts {
			p = p.Add(r.parts[i].Vel.Scale(r.parts[i].Mass))
		}
	}
	return p
}

// Owners returns, for every particle ordered by ID, the rank that currently
// owns it — the domain-decomposition map.
func (s *Simulation) Owners() []int {
	type rec struct {
		id   int64
		rank int
	}
	var all []rec
	for ri, r := range s.ranks {
		for i := range r.parts {
			all = append(all, rec{r.parts[i].ID, ri})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].id < all[j].id })
	out := make([]int, len(all))
	for i, a := range all {
		out[i] = a.rank
	}
	return out
}

// RankCounts returns the current particle count per rank (load balance
// diagnostics).
func (s *Simulation) RankCounts() []int {
	out := make([]int, len(s.ranks))
	for i, r := range s.ranks {
		out[i] = len(r.parts)
	}
	return out
}
