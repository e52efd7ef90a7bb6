package sim

import (
	"fmt"
	"math"
	"sort"
	"time"

	"bonsai/internal/body"
	"bonsai/internal/domain"
	"bonsai/internal/grav"
	"bonsai/internal/mpi"
	"bonsai/internal/obs"
	"bonsai/internal/snapshot"
)

// Node drives ONE rank of a distributed simulation over an mpi.World, and
// it is the package's only step driver: it owns the step, evaluation and
// time counters, the t=0 priming evaluation, the global-dt leapfrog, the
// block-timestep substep sequence and the per-rank metrics record. A
// multi-process run (cmd/bonsai's launcher) creates one Node per hosted rank
// over a socket world; Simulation creates one per rank over an in-process
// world. Either way every rank calls the same methods in lockstep and the
// collectives inside the pipeline keep the world synchronized, so an 8-rank
// run over sockets reproduces an 8-rank Simulation to within LET-arrival-
// order float jitter (bitwise under SerialLET).
type Node struct {
	cfg   Config
	comm  *mpi.Comm
	r     *rank
	step  int
	evals int // completed force evaluations (tracing sequence number)
	time  float64
	first bool // the t=0 priming evaluation is still due
	// primed: the priming evaluation ran this step's domain epoch, so the
	// step's closing evaluation skips it.
	primed bool
	// acc sums the block-timestep evaluations of the current step.
	acc RankStats
}

// NewNode creates the driver for one rank. parts is this rank's initial
// slice of the global particle set; every rank of the world must receive the
// same Config and a consistent split of the global set (SliceForRank).
// cfg.Ranks must equal w.Size().
func NewNode(cfg Config, w *mpi.World, rankID int, parts []body.Particle) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if cfg.Ranks != w.Size() {
		return nil, fmt.Errorf("sim: config has %d ranks, world has %d", cfg.Ranks, w.Size())
	}
	if cfg.Obs != nil && cfg.Obs.Ranks() != cfg.Ranks {
		return nil, fmt.Errorf("sim: recorder has %d rank buffers, world has %d", cfg.Obs.Ranks(), cfg.Ranks)
	}
	for i := range parts {
		if !parts[i].Pos.IsFinite() || !parts[i].Vel.IsFinite() ||
			math.IsNaN(parts[i].Mass) || math.IsInf(parts[i].Mass, 0) || parts[i].Mass < 0 {
			return nil, fmt.Errorf("sim: particle %d (id %d) has non-finite or negative state", i, parts[i].ID)
		}
	}
	local := make([]body.Particle, len(parts))
	copy(local, parts)
	n := &Node{
		cfg:   cfg,
		comm:  w.Comm(rankID),
		first: true,
	}
	n.r = &rank{
		cfg:   &n.cfg,
		comm:  n.comm,
		parts: local,
		dec:   domain.Uniform(cfg.Ranks),
		obs:   cfg.Obs.Rank(rankID),
		met:   cfg.Obs.Metrics(),
	}
	return n, nil
}

// SliceForRank cuts rank r's initial slice out of a global particle set with
// an even split: every process generates or loads the same global set and
// keeps only its share. The first domain update moves every particle to its
// Hilbert-order owner.
func SliceForRank(parts []body.Particle, r, ranks int) []body.Particle {
	lo := r * len(parts) / ranks
	hi := (r + 1) * len(parts) / ranks
	return parts[lo:hi]
}

// Rank returns the rank this node drives.
func (n *Node) Rank() int { return n.comm.Rank() }

// Ranks returns the world size.
func (n *Node) Ranks() int { return n.comm.Size() }

// Obs returns the node's tracing recorder (nil when tracing is disabled) —
// the state a worker's telemetry endpoint serves.
func (n *Node) Obs() *obs.Recorder { return n.cfg.Obs }

// PairBytes returns the cumulative wire bytes this rank has sent to rank
// `to` (0 when the transport does not track traffic).
func (n *Node) PairBytes(to int) int64 {
	return n.comm.World().PairBytes(n.comm.Rank(), to)
}

// Time returns the current simulation time.
func (n *Node) Time() float64 { return n.time }

// StepCount returns the number of completed steps.
func (n *Node) StepCount() int { return n.step }

// SetClock fast-forwards the step counter and simulation time, for resuming
// from a checkpoint: the domain-epoch schedule (step % DomainFreq) must
// continue from the restored step, not restart at 0.
func (n *Node) SetClock(step int, time float64) {
	n.step = step
	n.time = time
}

// Particles returns the rank's current local particles (live slice; do not
// mutate).
func (n *Node) Particles() []body.Particle { return n.r.parts }

// Substep returns the current substep barrier (0 at top of step). Only
// meaningful with Config.BlockSteps.
func (n *Node) Substep() int { return n.r.sub }

func (n *Node) domainDue() bool { return n.step%n.cfg.DomainFreq == 0 }

// forces runs one full force evaluation and records it.
func (n *Node) forces(domainUpdate bool) RankStats {
	n.r.stepForces(n.step, n.evals, domainUpdate)
	n.recordStepMetrics(nil)
	return n.r.stats
}

// recordBlock records one block-timestep evaluation and folds it into the
// step's summary.
func (n *Node) recordBlock(be blockEval) {
	n.recordStepMetrics(&be)
	n.acc.add(n.r.stats)
	n.acc.Substeps++
	if be.rebuilt {
		n.acc.Rebuilds++
	}
	n.acc.ActiveSum += be.activeN
	n.acc.TotalSum += be.totalN
}

// recordStepMetrics appends this rank's record of the evaluation that just
// ran to the tracing recorder's metrics stream and advances the evaluation
// counter. A rank only knows its own times: Mean == Max == this rank's step
// time and Straggler names itself; obs.MergeStepMetrics (Recorder.Steps, the
// telemetry collector) folds the records of all ranks into the cross-rank
// aggregate. be carries the block-timestep diagnostics of a substep
// evaluation (nil on the global-dt path).
func (n *Node) recordStepMetrics(be *blockEval) {
	eval := n.evals
	n.evals++
	rec := n.cfg.Obs
	if rec == nil {
		return
	}
	rs := n.r.stats
	t := rs.Times
	ms := func(d time.Duration) float64 { return d.Seconds() * 1e3 }
	m := obs.StepMetrics{
		Step:            eval,
		Rank:            n.comm.Rank(),
		Ranks:           n.comm.Size(),
		N:               len(n.r.parts),
		MeanStepMS:      ms(t.Total),
		MaxStepMS:       ms(t.Total),
		Straggler:       n.comm.Rank(),
		NonHiddenCommMS: ms(t.NonHiddenComm),
		LETsRecv:        rs.LETsRecv,
		LETsOverlapped:  rs.LETsOverlapped,
		ArrivalsSeen:    rs.ArrivalsSeen,
		WalkGflops:      rs.WalkGflops(),
		AppGflops:       finiteRate(rs.Grav.Gflops(t.Total)),
		KernelISA:       grav.KernelISA(),
		SortBuildMS:     ms(t.SortBuild),
		DomainMS:        ms(t.Domain),
		TreePropsMS:     ms(t.TreeProps),
		GravLocalMS:     ms(t.GravLocal),
		GravLETMS:       ms(t.GravLET),
		OtherMS:         ms(t.Other),
	}
	if rs.LETsRecv > 0 {
		m.OverlapFrac = float64(rs.LETsOverlapped) / float64(rs.LETsRecv)
	}
	if rs.ArrivalsSeen > 0 {
		m.WorstArrivalMS = float64(rs.WorstArrival) / 1e6
	}
	if be != nil {
		m.Substep = be.boundary
		m.TreeRebuilt = be.rebuilt
		if be.totalN > 0 {
			m.ActiveN = be.activeN
			m.ActiveFrac = float64(be.activeN) / float64(be.totalN)
		}
		if n.cfg.MaxRungs > 0 && n.r.rungPop != nil {
			m.RungPop = make([]int, len(n.r.rungPop))
			for k, c := range n.r.rungPop {
				m.RungPop[k] = int(c)
			}
		}
	}
	rec.AddStep(m)
}

// prime runs the t=0 priming force evaluation if it is still due: Step,
// ComputeForces and Energy all need accelerations and potentials to exist.
// It carries the current step's domain epoch, which the step's own closing
// evaluation then skips. Reports whether it ran (collective).
func (n *Node) prime() bool {
	if !n.first {
		return false
	}
	n.first = false
	n.primed = true
	if n.cfg.BlockSteps {
		n.recordBlock(n.r.blockPrime(n.step, n.evals, n.r.sub == 0 && n.domainDue()))
	} else {
		n.forces(n.domainDue())
	}
	return true
}

// Step advances this rank by one leapfrog step (kick-drift-kick), in
// lockstep with every other rank of the world, and returns the rank's
// force-phase statistics. With Config.BlockSteps the step runs as a sequence
// of block-timestep substeps (see block.go) and the returned stats sum every
// evaluation of the step, priming included, with the block summary set.
func (n *Node) Step() RankStats {
	if n.cfg.BlockSteps {
		n.advance(0)
		return n.finishStep()
	}
	n.prime()
	dt := n.cfg.DT
	r := n.r
	// Kick half + drift full (uses accelerations from the previous force
	// evaluation, which are aligned with the rank's current particle order).
	t0 := time.Now()
	for i := range r.parts {
		r.parts[i].Vel = r.parts[i].Vel.Add(r.acc[i].Scale(dt / 2))
		r.parts[i].Pos = r.parts[i].Pos.Add(r.parts[i].Vel.Scale(dt))
	}
	r.obs.Span(n.evals, obs.PhaseIntegrate, obs.LaneCompute, 0, t0, time.Now(), 0)
	// New forces at t+dt. If the t=0 priming evaluation just ran the domain
	// update, positions have only drifted within the same step, so the
	// decomposition is still fresh: skip the second update.
	rs := n.forces(n.domainDue() && !n.primed)
	n.primed = false
	// Kick half. The span is tagged with the evaluation whose accelerations
	// it applies (the one that just ran), so traces never mint an evaluation
	// ID that has no force phase.
	t0 = time.Now()
	for i := range r.parts {
		r.parts[i].Vel = r.parts[i].Vel.Add(r.acc[i].Scale(dt / 2))
	}
	r.obs.Span(n.evals-1, obs.PhaseIntegrate, obs.LaneCompute, 0, t0, time.Now(), 1)
	n.step++
	n.time += dt
	return rs
}

// advance runs up to maxB block-timestep substeps (the rest of the top-level
// step when maxB <= 0), after the priming evaluation if it is still due.
// Reports whether it crossed the top-of-step barrier.
func (n *Node) advance(maxB int) bool {
	n.prime()
	for b := 0; maxB <= 0 || b < maxB; b++ {
		be := n.r.blockSubstep(n.step, n.evals, n.domainDue() && !n.primed)
		n.recordBlock(be)
		if be.boundary == 1<<n.cfg.MaxRungs {
			n.primed = false
			return true
		}
	}
	return false
}

// finishStep closes a block-timestep step: it returns the step's summed
// stats and advances the clock.
func (n *Node) finishStep() RankStats {
	out := n.acc
	n.acc = RankStats{}
	n.step++
	n.time += n.cfg.DT
	return out
}

// SubstepN advances n occupied substep barriers (block-timestep runs only)
// and reports whether the advance crossed the top-of-step barrier, which
// also completes the step and advances the clock. Exposed for restart tests
// and substep-resolution drivers; Step remains the normal entry point.
func (n *Node) SubstepN(k int) (bool, error) {
	if !n.cfg.BlockSteps {
		return false, fmt.Errorf("sim: SubstepN requires Config.BlockSteps")
	}
	done := n.advance(k)
	if done {
		n.finishStep()
	}
	return done, nil
}

// ComputeForces runs the force pipeline once without advancing time. Useful
// for scaling measurements (the paper's benchmarks time force iterations):
// every call runs the full pipeline, including the domain update when the
// current step is an update epoch. The first call is the priming evaluation
// a following Step would otherwise run.
func (n *Node) ComputeForces() RankStats {
	if n.prime() {
		return n.r.stats
	}
	rs := n.forces(n.domainDue())
	if n.cfg.BlockSteps && n.cfg.MaxRungs > 0 {
		// The full rebuild reordered (and may have exchanged) the particles:
		// re-anchor the tree-reuse drift bound to the new tree.
		n.r.trackBuild()
	}
	return rs
}

// RestoreSubstep resumes a block-timestep run from a snapshot taken at a
// substep barrier: sub is the barrier index (0 ≤ sub < 2^MaxRungs), and the
// particles' snapshot rungs are kept (clamped to MaxRungs) instead of being
// re-assigned by the priming evaluation. Every rank of the world must
// restore the same barrier, before the first Step, SubstepN, ComputeForces
// or Energy, together with SetClock for the step/time counters.
func (n *Node) RestoreSubstep(sub int) error {
	if !n.cfg.BlockSteps {
		return fmt.Errorf("sim: RestoreSubstep requires Config.BlockSteps")
	}
	if S := 1 << n.cfg.MaxRungs; sub < 0 || sub >= S {
		return fmt.Errorf("sim: substep %d outside [0, %d)", sub, S)
	}
	n.r.sub = sub
	n.r.restored = true
	n.r.treeOK = false
	n.r.clampRungs()
	return nil
}

// localEnergy returns this rank's share of the kinetic and potential energy
// from the most recent force evaluation. The pairwise self-gravity
// potential is halved (each pair is counted twice by the per-particle sums);
// the external-field potential, if any, enters at full weight.
func (n *Node) localEnergy() (kin, pot float64) {
	r := n.r
	ext := len(r.extPot) == len(r.parts) && len(r.extPot) > 0
	for i := range r.parts {
		kin += 0.5 * r.parts[i].Mass * r.parts[i].Vel.Norm2()
		pot += 0.5 * r.parts[i].Mass * r.pot[i]
		if ext {
			pot += r.parts[i].Mass * r.extPot[i]
		}
	}
	return kin, pot
}

// Energy returns the total kinetic and potential energy across all ranks
// (collective: every rank must call it at the same point). Before the first
// step it runs the priming evaluation, so it reports the initial state.
func (n *Node) Energy() (kin, pot float64) {
	n.prime()
	kin, pot = n.localEnergy()
	sum := mpi.Allreduce(n.comm, []float64{kin, pot}, func(a, b []float64) []float64 {
		return []float64{a[0] + b[0], a[1] + b[1]}
	}, 16)
	return sum[0], sum[1]
}

// GatherParticles collects the global particle set at root, sorted by ID
// (collective). Non-root ranks receive nil.
func (n *Node) GatherParticles(root int) []body.Particle {
	local := append([]body.Particle(nil), n.r.parts...)
	slices := mpi.Gather(n.comm, root, local, len(local)*body.WireBytes)
	if n.comm.Rank() != root {
		return nil
	}
	var all []body.Particle
	for _, s := range slices {
		all = append(all, s...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	return all
}

// Checkpoint writes a distributed checkpoint of the current state into dir
// (collective). Every rank stores its slice, a barrier confirms all writes
// landed, and rank 0 commits the manifest — so a crash at any point leaves
// either the previous checkpoint or the new one, never a torn mix. Old
// checkpoints beyond the two newest are pruned.
func (n *Node) Checkpoint(dir string) error {
	err := snapshot.WriteRankCkpt(dir, int64(n.step), n.comm.Rank(), n.time, n.r.parts)
	n.comm.Barrier() // all rank files are on disk (or failed) past this point
	if n.comm.Rank() == 0 {
		if err == nil {
			err = snapshot.CommitCkpt(dir, int64(n.step), n.comm.Size())
		}
		if err == nil {
			snapshot.PruneCkpts(dir, 2)
		}
	}
	n.comm.Barrier() // no rank races ahead while the manifest is in flight
	return err
}
