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

// Node drives ONE rank of a distributed simulation over an externally
// provided mpi.World — the SPMD counterpart of Simulation, which owns all
// ranks of an in-process world. Every process of a socket-transport run
// (cmd/bonsai's launcher) creates one Node per hosted rank and calls Step in
// lockstep; the collective structure of the pipeline keeps the ranks
// synchronized exactly as Simulation's parallel() does.
//
// The step pipeline, evaluation numbering, and integration order are the same
// code paths as Simulation's (rank.stepForces plus the KDK kicks), so an
// 8-rank Node run over sockets reproduces an 8-rank Simulation to within
// LET-arrival-order float jitter.
type Node struct {
	cfg   Config
	comm  *mpi.Comm
	r     *rank
	step  int
	evals int
	time  float64
	first bool // the t=0 priming evaluation is still due
	// primed: the priming evaluation ran this step's domain epoch, so the
	// step's post-drift evaluation skips it (global-dt path only).
	primed bool

	// Block-timestep summary of the last completed step (see BlockSummary).
	lastSub, lastReb int
	lastActiveFrac   float64
}

// BlockSummary reports the block-timestep accounting of the most recent Step:
// substep force evaluations, full tree rebuilds among them, and the mean
// active fraction per evaluation. All zero on global-dt runs.
func (n *Node) BlockSummary() (substeps, rebuilds int, activeFrac float64) {
	return n.lastSub, n.lastReb, n.lastActiveFrac
}

// NewNode creates the driver for one rank. parts is this rank's initial
// slice of the global particle set; every rank of the world must receive the
// same Config and a consistent split (Simulation.New's split of the global
// set ordered by rank, e.g. SliceForRank). cfg.Ranks must equal w.Size().
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

// SliceForRank cuts rank r's initial slice out of a global particle set,
// using the same even split as Simulation.New — every process generates or
// loads the same global set and keeps only its share.
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

func (n *Node) domainDue() bool { return n.step%n.cfg.DomainFreq == 0 }

func (n *Node) forces(domainUpdate bool) RankStats {
	eval := n.evals
	n.evals++
	n.r.stepForces(n.step, eval, domainUpdate)
	n.recordStepMetrics(eval, n.r.stats, nil)
	return n.r.stats
}

// recordStepMetrics appends this rank's view of one force evaluation to the
// tracing recorder's metrics stream. Unlike Simulation's aggregated record, a
// Node only knows its own times: Mean == Max == this rank's step time and
// Straggler names itself; the telemetry collector (or MergeStepMetrics) folds
// the per-rank streams into the cross-rank aggregate. be carries the
// block-timestep diagnostics of a substep evaluation (nil on the global-dt
// path). No-op when tracing is disabled.
func (n *Node) recordStepMetrics(eval int, rs RankStats, be *blockEval) {
	rec := n.cfg.Obs
	if rec == nil {
		return
	}
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
		m.RungPop = be.rungPop
	}
	rec.AddStep(m)
}

// Step advances this rank by one leapfrog step, in lockstep with every other
// rank of the world, and returns the rank's force-phase statistics. The
// sequence of collective operations is identical to Simulation.Step —
// including the block-timestep path, which dispatches to the same
// blockAdvance every other rank runs.
func (n *Node) Step() RankStats {
	if n.cfg.BlockSteps {
		return n.stepBlock()
	}
	n.prime()
	dt := n.cfg.DT
	r := n.r
	t0 := time.Now()
	for i := range r.parts {
		r.parts[i].Vel = r.parts[i].Vel.Add(r.acc[i].Scale(dt / 2))
		r.parts[i].Pos = r.parts[i].Pos.Add(r.parts[i].Vel.Scale(dt))
	}
	r.obs.Span(n.evals, obs.PhaseIntegrate, obs.LaneCompute, 0, t0, time.Now(), 0)
	rs := n.forces(n.domainDue() && !n.primed)
	n.primed = false
	t0 = time.Now()
	for i := range r.parts {
		r.parts[i].Vel = r.parts[i].Vel.Add(r.acc[i].Scale(dt / 2))
	}
	r.obs.Span(n.evals-1, obs.PhaseIntegrate, obs.LaneCompute, 0, t0, time.Now(), 1)
	n.step++
	n.time += dt
	return rs
}

// prime runs the t=0 priming force evaluation if it is still due — the
// Node counterpart of Simulation.prime (collective).
func (n *Node) prime() {
	if !n.first {
		return
	}
	n.first = false
	if n.cfg.BlockSteps {
		n.r.blockPrime(n.step, n.evals)
		n.recordBlockEvals()
		return
	}
	n.primed = true
	n.forces(n.domainDue())
}

// Energy returns the total kinetic and potential energy across all ranks
// (collective: every rank must call it at the same point). Before the first
// step it runs the priming evaluation, so it reports the initial state.
// Pairwise self-gravity potential is halved as in Simulation.Energy.
func (n *Node) Energy() (kin, pot float64) {
	n.prime()
	r := n.r
	ext := len(r.extPot) == len(r.parts) && len(r.extPot) > 0
	for i := range r.parts {
		kin += 0.5 * r.parts[i].Mass * r.parts[i].Vel.Norm2()
		pot += 0.5 * r.parts[i].Mass * r.pot[i]
		if ext {
			pot += r.parts[i].Mass * r.extPot[i]
		}
	}
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
