// Package sim is the parallel gravitational tree-code: the paper's Bonsai
// pipeline over the message-passing runtime, one simulated GPU-equipped
// node per rank.
//
// Node is the one step driver. It runs one rank over any mpi.World: a
// worker process of a socket run creates one Node, and Simulation, the
// in-process run, is a chan world plus one Node per rank making the same
// calls concurrently. Every rank calls the same Node methods in lockstep
// and the collectives keep the world synchronized.
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

	"bonsai/internal/body"
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
	// per-pair bytes, and every rank appends its metrics record after every
	// force evaluation (Recorder.Steps folds them per evaluation). The
	// recorder must have been created for exactly Ranks ranks. nil (the default) disables all of it at the
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
// default" and stays legal), and out-of-range rung caps. NewNode calls it
// before filling defaults.
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

// Simulation is an in-process run: one chan-transport world and one Node
// per rank. Every method that advances time calls the same Node method on
// all ranks concurrently, so in-process runs execute exactly the code the
// socket workers run; the rest gathers the ranks' state directly.
type Simulation struct {
	world *mpi.World
	nodes []*Node
	// observed counts the merged metrics records whose rank imbalance has
	// been fed to the imbalance histogram.
	observed int
}

// New distributes the particles over cfg.Ranks in-process ranks. The
// initial placement is an even split (SliceForRank); the first step's domain
// update moves every particle to its Hilbert-order owner.
func New(cfg Config, parts []body.Particle) (*Simulation, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("sim: no particles")
	}
	ranks := cfg.withDefaults().Ranks
	if ranks > len(parts) {
		return nil, fmt.Errorf("sim: %d ranks for %d particles", ranks, len(parts))
	}
	s := &Simulation{world: mpi.NewWorld(ranks)}
	for r := 0; r < ranks; r++ {
		n, err := NewNode(cfg, s.world, r, SliceForRank(parts, r, ranks))
		if err != nil {
			return nil, err
		}
		s.nodes = append(s.nodes, n)
	}
	if cfg.Obs != nil {
		s.world.EnableObs(cfg.Obs.Metrics().QueueDepthHist())
		s.world.ObserveFrameBytes(cfg.Obs.Metrics().FrameBytesHist())
	}
	return s, nil
}

// each calls fn on every node concurrently and waits — the in-process
// stand-in for p processes making the same collective call — then feeds the
// rank-imbalance histogram from the evaluations the call completed.
func (s *Simulation) each(fn func(i int, n *Node)) {
	var wg sync.WaitGroup
	for i, n := range s.nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i, n)
		}()
	}
	wg.Wait()
	if rec := s.Obs(); rec != nil {
		steps := rec.Steps()
		for _, m := range steps[s.observed:] {
			rec.Metrics().ImbalanceHist().Observe(int64((m.MaxStepMS - m.MeanStepMS) * 1e6))
		}
		s.observed = len(steps)
	}
}

// Obs returns the tracing recorder, or nil when tracing is disabled.
func (s *Simulation) Obs() *obs.Recorder { return s.nodes[0].cfg.Obs }

// Config returns the effective (default-filled) configuration.
func (s *Simulation) Config() Config { return s.nodes[0].cfg }

// World exposes the message-passing runtime, for traffic accounting.
func (s *Simulation) World() *mpi.World { return s.world }

// Time returns the current simulation time.
func (s *Simulation) Time() float64 { return s.nodes[0].Time() }

// StepCount returns the number of completed steps.
func (s *Simulation) StepCount() int { return s.nodes[0].StepCount() }

// Substep returns the current substep barrier (0 at top of step). Only
// meaningful with Config.BlockSteps.
func (s *Simulation) Substep() int { return s.nodes[0].Substep() }

// Step advances the system by one step (Node.Step on every rank) and
// returns the aggregated statistics of its force computation.
func (s *Simulation) Step() StepStats {
	rs := make([]RankStats, len(s.nodes))
	s.each(func(i int, n *Node) { rs[i] = n.Step() })
	return aggregate(s.StepCount(), rs)
}

// Run advances n steps and returns the per-step statistics.
func (s *Simulation) Run(n int) []StepStats {
	out := make([]StepStats, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, s.Step())
	}
	return out
}

// ComputeForces runs the force pipeline once without advancing time (see
// Node.ComputeForces) and returns the aggregated statistics.
func (s *Simulation) ComputeForces() StepStats {
	rs := make([]RankStats, len(s.nodes))
	s.each(func(i int, n *Node) { rs[i] = n.ComputeForces() })
	return aggregate(s.StepCount(), rs)
}

// SubstepN advances k occupied substep barriers (see Node.SubstepN).
func (s *Simulation) SubstepN(k int) (done bool, err error) {
	s.each(func(i int, n *Node) {
		if d, e := n.SubstepN(k); i == 0 {
			done, err = d, e
		}
	})
	return done, err
}

// RestoreSubstep resumes a block-timestep run from a snapshot taken at a
// substep barrier (see Node.RestoreSubstep).
func (s *Simulation) RestoreSubstep(sub int) (err error) {
	s.each(func(i int, n *Node) {
		if e := n.RestoreSubstep(sub); i == 0 {
			err = e
		}
	})
	return err
}

// SetClock fast-forwards the step counter and simulation time when resuming
// from a snapshot, so the domain-epoch schedule continues from the restored
// step instead of restarting at 0.
func (s *Simulation) SetClock(step int, time float64) {
	s.each(func(_ int, n *Node) { n.SetClock(step, time) })
}

// Energy returns the total kinetic and potential energy from the most recent
// force evaluation; before the first step it runs the priming evaluation,
// so it reports the initial state. It sums the ranks' shares in rank order
// without the allreduce Node.Energy sends, so asking for it leaves the
// run's traffic unchanged.
func (s *Simulation) Energy() (kin, pot float64) {
	s.each(func(_ int, n *Node) { n.prime() })
	for _, n := range s.nodes {
		k, p := n.localEnergy()
		kin += k
		pot += p
	}
	return kin, pot
}

// Particles gathers all particles, sorted by ID, with their current state.
func (s *Simulation) Particles() []body.Particle {
	var all []body.Particle
	for _, n := range s.nodes {
		all = append(all, n.r.parts...)
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
	for _, n := range s.nodes {
		r := n.r
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

// Momentum returns the total linear momentum.
func (s *Simulation) Momentum() vec.V3 {
	var p vec.V3
	for _, n := range s.nodes {
		for _, q := range n.r.parts {
			p = p.Add(q.Vel.Scale(q.Mass))
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
	for ri, n := range s.nodes {
		for _, q := range n.r.parts {
			all = append(all, rec{q.ID, ri})
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
	out := make([]int, len(s.nodes))
	for i, n := range s.nodes {
		out[i] = len(n.r.parts)
	}
	return out
}
