package sim

import (
	"fmt"
	"math"
	"sync"
	"time"

	"bonsai/internal/body"
	"bonsai/internal/domain"
	"bonsai/internal/keys"
	"bonsai/internal/lettree"
	"bonsai/internal/mpi"
	"bonsai/internal/obs"
	"bonsai/internal/octree"
	"bonsai/internal/par"
	"bonsai/internal/psort"
	"bonsai/internal/vec"
)

// rank is one simulated MPI process with one simulated GPU. Its step
// pipeline reproduces the paper's: SFC sort → domain update → tree build →
// tree properties → boundary allgather → local gravity overlapped with the
// LET exchange → integration.
type rank struct {
	cfg  *Config
	comm *mpi.Comm

	parts []body.Particle // local particles, Morton-sorted after sortBuild
	grid  keys.Grid
	dec   domain.Decomposition

	// SoA views rebuilt each step (tree order == parts order).
	pos    []vec.V3
	mass   []float64
	mk     []keys.Key
	acc    []vec.V3
	pot    []float64 // self-gravity potential only
	extPot []float64 // external analytic field potential (empty when unset)

	tree   *octree.Tree
	groups []octree.Group

	// Scratch reused across steps (per-rank, single-writer): the sort's key
	// slice and Sorter (ping-pong buffer + radix histograms), the particle
	// reorder target and the persistent fill callback of the fused
	// sort+build, the domain phase's Hilbert keys and work weights, and the
	// tree pipeline's cell arenas. Together these make the steady-state
	// sort+build/domain-keys/groups phases allocation-free.
	kv      []psort.KV
	sorter  psort.Sorter
	spare   []body.Particle
	fill    func(lo, hi int)
	hk      []keys.Key
	weights []float64
	ts      octree.BuildScratch

	// Observability (all nil when tracing is disabled): the rank's span
	// buffer, the shared histogram set, the current evaluation sequence
	// number, and the evaluation-scoped LET arrival timestamps (obs-epoch
	// ns, recorded by the compute thread as it receives each LET).
	obs       *obs.RankRec
	met       *obs.Metrics
	eval      int
	arrivalNS []int64

	// step-scoped
	stats RankStats

	// Block-timestep state (Config.BlockSteps; see block.go). sub is the
	// current substep barrier, rungPop the allreduced global rung
	// population, buildPos/minLeaf/maxDrift2 the tree-reuse drift bound,
	// and the a* slices the compact gather buffers for active-subset walks.
	sub        int
	rungPop    []float64
	popScratch []float64
	buildPos   []vec.V3
	minLeaf    float64
	maxDrift2  float64
	treeOK     bool
	restored   bool // rungs/substep restored from a snapshot: skip the priming rung assignment
	active     []int32
	apos       []vec.V3
	amass      []float64
	aacc       []vec.V3
	apot       []float64
	aext       []float64
	agroups    []octree.Group
}

// walkTargets is the target side of one gravity phase: the groups to walk,
// their SoA views, and the force/potential outputs, plus the bounding box
// advertised to peers (the box sufficiency checks and LET builds see). The
// full pipeline points it at the rank's tree-ordered arrays; block-timestep
// substeps point it at compact gathers of the active particles only, so the
// LET/boundary exchange ships data for active walks alone.
type walkTargets struct {
	groups []octree.Group
	pos    []vec.V3
	mass   []float64
	acc    []vec.V3
	pot    []float64
	ext    []float64
	box    vec.Box
}

const (
	tagLETBase      = 1 << 20        // user-tag space for LET pushes, offset by step parity
	tagBoundaryBase = tagLETBase + 2 // boundary-tree pushes (overlapped schedule), offset by step parity
)

// stepForces runs the full force pipeline for one step and leaves
// accelerations/potentials in r.acc/r.pot (aligned with r.parts).
// domainUpdate selects whether this evaluation re-decomposes and exchanges
// particles; the caller (the Node) owns the domain-epoch schedule so that
// the t=0 priming evaluation and the first post-drift evaluation do not both
// pay for a decomposition in the same step. eval is the global force-
// evaluation sequence number, used only to tag trace spans (a step can run
// two evaluations when it primes t=0 accelerations).
func (r *rank) stepForces(step, eval int, domainUpdate bool) {
	r.stats = RankStats{}
	r.eval = eval
	t0 := time.Now()

	r.buildPipeline(step, eval, domainUpdate)

	// --- Gravity: local tree walk overlapped with the LET exchange, then
	// the eps/G/external post-processing, all over the full particle set.
	t := r.fullTargets()
	r.gravity(step%2, &t)
	r.finishForces(&t)
	r.extPot = t.ext

	r.stats.Times.Total = time.Since(t0)
	r.stats.Times.DeriveOther()
	r.stats.NLocal = len(r.parts)

	// Per-particle work weights for the next decomposition: rank-level flop
	// balancing as in the paper (§III.B.1).
	if n := len(r.parts); n > 0 {
		w := r.stats.Grav.Flops() / float64(n)
		for i := range r.parts {
			r.parts[i].Weight = w
		}
	}
}

// fullTargets points a walkTargets at the rank's full tree-ordered arrays —
// every local particle is a walk target. The advertised box is recomputed
// from the particles: sufficiency checks and LET construction must see the
// box that actually bounds the targets the groups were built from.
func (r *rank) fullTargets() walkTargets {
	return walkTargets{
		groups: r.groups,
		pos:    r.pos,
		mass:   r.mass,
		acc:    r.acc,
		pot:    r.pot,
		ext:    r.extPot,
		box:    body.Bounds(r.parts),
	}
}

// buildPipeline runs the tree side of a force evaluation: global bounding
// box and key grid, the (optional) domain update, the fused Morton sort +
// octree construction, and multipoles + target groups.
func (r *rank) buildPipeline(step, eval int, domainUpdate bool) {
	// --- Global bounding box and key grid.
	gbox := domain.GlobalBox(r.comm, body.Bounds(r.parts))
	r.grid = keys.NewGrid(gbox)

	// --- Domain update (decomposition + exchange) every DomainFreq steps.
	tD := time.Now()
	if domainUpdate {
		// Hilbert keys and work weights go into rank scratch (not fresh
		// slices): the decomposition only reads them during the collective
		// call, so reuse across domain epochs is safe. The key loop is the
		// expensive part (Skilling transpose per particle) and is chunked
		// over the rank's workers.
		// Closure literals live inside the workers > 1 branches only: they
		// escape through par.For's goroutines, and hoisting them would cost the
		// serial path a heap allocation per call.
		r.hk = resize(r.hk, len(r.parts))
		hk, parts := r.hk, r.parts
		if w := r.cfg.WorkersPerRank; w > 1 {
			par.For(len(parts), w, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					hk[i] = r.grid.HilbertOf(parts[i].Pos)
				}
			})
		} else {
			for i := range parts {
				hk[i] = r.grid.HilbertOf(parts[i].Pos)
			}
		}
		var weights []float64
		if step > 0 {
			r.weights = resize(r.weights, len(parts))
			weights = r.weights
			if w := r.cfg.WorkersPerRank; w > 1 {
				par.For(len(parts), w, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						weights[i] = parts[i].Weight
					}
				})
			} else {
				for i := range parts {
					weights[i] = parts[i].Weight
				}
			}
		}
		r.dec = domain.SampleDecompose(r.comm, hk, weights, domain.Options{PX: r.cfg.PX})
		if r.cfg.SnapLevel > 0 {
			// Align domain boundaries with the global octree lattice
			// (§III.B.1: domains as branches of a hypothetical global
			// octree, binary-consistent across process counts).
			r.dec = r.dec.SnapToLevel(r.cfg.SnapLevel)
		}
		r.parts = domain.Exchange(r.comm, r.dec, r.parts, r.grid)
	}
	r.stats.Times.Domain = time.Since(tD)
	r.obs.Span(eval, obs.PhaseDomain, obs.LaneCompute, 0, tD, tD.Add(r.stats.Times.Domain), 0)

	// --- Fused Morton sort + tree construction: the MSD octant partition
	// emits the tree top while sorting, and frontier ranges finish (sort
	// tail, payload permute, subtree build) concurrently in the rank's
	// reusable arenas, stitched back to the exact serial layout.
	tS := time.Now()
	r.sortBuild()
	r.stats.Times.SortBuild = time.Since(tS)
	r.obs.Span(eval, obs.PhaseSortBuild, obs.LaneCompute, 0, tS, tS.Add(r.stats.Times.SortBuild), 0)

	// --- Tree properties (multipoles) and target groups, both multicore.
	tP := time.Now()
	r.tree.ComputePropertiesParallel(r.cfg.WorkersPerRank)
	r.groups = r.tree.MakeGroupsScratch(r.cfg.NGroup, r.cfg.WorkersPerRank, r.groups)
	r.stats.Times.TreeProps = time.Since(tP)
	r.obs.Span(eval, obs.PhaseTreeProps, obs.LaneCompute, 0, tP, tP.Add(r.stats.Times.TreeProps), 0)
}

// sortBuild computes Morton keys and runs the fused MSD sort + octree
// construction: one octree.SortBuildScratch call sorts the keys, reorders
// r.parts (and the SoA views) into key order, and builds the tree, all
// through the rank's scratch buffers. The payload permute runs inside the
// builder's fill callback, once per finished key range — from concurrent
// workers when WorkersPerRank > 1 — with every call writing disjoint
// indices, so the result is independent of the worker count.
func (r *rank) sortBuild() {
	n := len(r.parts)
	workers := r.cfg.WorkersPerRank
	r.kv = resize(r.kv, n)
	kv, parts := r.kv, r.parts
	if workers > 1 {
		par.For(n, workers, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				kv[i] = psort.KV{Key: uint64(r.grid.MortonOf(parts[i].Pos)), Idx: int32(i)}
			}
		})
	} else {
		for i := range parts {
			kv[i] = psort.KV{Key: uint64(r.grid.MortonOf(parts[i].Pos)), Idx: int32(i)}
		}
	}

	r.spare = resize(r.spare, n)
	r.mk = resize(r.mk, n)
	r.pos = resize(r.pos, n)
	r.mass = resize(r.mass, n)
	r.acc = resize(r.acc, n)
	r.pot = resize(r.pot, n)
	if r.fill == nil {
		// The persistent closure keeps the steady-state path allocation
		// free. It reads the rank's buffers at call time: during the build
		// r.parts is still the unsorted array and r.spare the reorder
		// target (the swap below happens after the build returns).
		r.fill = func(lo, hi int) {
			kv, parts, spare := r.kv, r.parts, r.spare
			psort.Permute(kv[lo:hi], parts, spare[lo:hi])
			for i := lo; i < hi; i++ {
				r.mk[i] = keys.Key(kv[i].Key)
				r.pos[i] = spare[i].Pos
				r.mass[i] = spare[i].Mass
				r.acc[i] = vec.V3{}
				r.pot[i] = 0
			}
		}
	}
	r.tree = octree.SortBuildScratch(&r.ts, &r.sorter, kv, r.mk, r.pos, r.mass,
		r.grid, r.cfg.NLeaf, workers, r.fill)
	r.parts, r.spare = r.spare, r.parts
}

// gravity performs the local + LET force computation over one push-style
// exchange: every rank ships its boundary tree to every peer, both sides of
// each pair evaluate the same sufficiency predicate on the same two boundary
// trees (the paper's symmetric double-check, no handshake), and a full LET
// moves only where the receiver's boundary view is insufficient. Two
// schedules run that exchange:
//
//   - overlapped (the default; the paper's pipeline, §III.B.3): boundary
//     trees are pushed point-to-point, a pool of builder goroutines
//     constructs and pushes outgoing LETs as peers' boundaries arrive, and
//     the compute thread polls the mailbox between local-walk chunks,
//     walking every LET that has already landed. After the local walk it
//     drains the stragglers, stealing queued LET builds while it waits.
//   - Config.SerialLET: no overlap at all — a blocking boundary allgather,
//     builds on the compute thread before the walk, receives strictly after
//     it in ascending peer order. Bitwise reproducible, it is the oracle the
//     overlapped schedule is tested against and the baseline of the overlap
//     benchmarks.
//
// The target side (groups, their SoA views, outputs, and the advertised box)
// comes from t: the full pipeline passes every local particle, block-timestep
// substeps pass only the active subset. tagPar is the message-tag parity that
// separates consecutive gravity phases' traffic (step parity for global-dt
// runs, evaluation parity for block runs, where one step holds many phases).
func (r *rank) gravity(tagPar int, t *walkTargets) {
	p := r.comm.Size()
	me := r.comm.Rank()
	theta, eps2 := r.cfg.Theta, r.cfg.Eps*r.cfg.Eps
	tag := tagLETBase + tagPar
	btag := tagBoundaryBase + tagPar

	// --- Boundary tree exchange. The SerialLET baseline keeps the blocking
	// allgather, fully exposing the exchange cost. The overlapped schedule
	// pushes the local boundary tree point-to-point and processes arrivals
	// between local-walk chunks, so the exchange hides behind the walk just
	// like the LET traffic it gates.
	tB := time.Now()
	myBoundary := lettree.BoundaryTree(r.tree, r.cfg.BoundaryDepth, t.box)
	var boundaries []*lettree.LET
	if r.cfg.SerialLET {
		boundaries = mpi.Allgather(r.comm, myBoundary, myBoundary.WireBytes())
	} else {
		boundaries = make([]*lettree.LET, p)
		boundaries[me] = myBoundary
		for j := 0; j < p; j++ {
			if j != me {
				r.comm.Send(j, btag, myBoundary, myBoundary.WireBytes())
			}
		}
	}
	r.stats.LETBytesSent += int64(myBoundary.WireBytes()) * int64(p-1)
	boundaryTime := time.Since(tB)
	r.obs.Span(r.eval, obs.PhaseBoundary, obs.LaneCompute, 0, tB, tB.Add(boundaryTime), 0)

	var localWalk, letWalk, waitTime time.Duration

	// --- LET construction: build and push a full LET to destination j.
	// BuildFor only reads the local tree and j's (already stored) boundary
	// box, so builds are safe alongside each other and alongside the
	// compute walks. In the SerialLET baseline there is no communication
	// thread at all: LETs are built and pushed on the compute thread ahead
	// of the local walk, and that time is exactly the communication cost
	// the pipeline would hide.
	sentBytes := make([]int64, p)
	buildLET := func(j, worker int) {
		// Under a process-wide builder budget, take one unit for the
		// duration of the construction+push. The serial baseline skips the
		// budget: it builds on the compute thread and must not block on
		// other ranks' builders.
		if b := r.cfg.LETBudget; b > 0 && !r.cfg.SerialLET {
			letBudget.acquire(b)
			defer letBudget.release()
		}
		var tb time.Time
		if r.obs != nil {
			tb = time.Now()
		}
		let := lettree.BuildFor(r.tree, boundaries[j].Box, theta, t.box)
		r.comm.Send(j, tag, let, let.WireBytes())
		sentBytes[j] = int64(let.WireBytes())
		if r.obs != nil {
			lane := obs.LaneBuilder
			if r.cfg.SerialLET {
				lane = obs.LaneCompute
			}
			r.obs.Span(r.eval, obs.PhaseLETBuild, lane, worker, tb, time.Now(), int64(j))
		}
	}
	var builders sync.WaitGroup // the overlapped schedule's LET-builder pool

	walkRemote := func(l *lettree.LET, src int, ph obs.Phase, from string) {
		tW := time.Now()
		forced := lettree.WalkObs(l, t.groups, t.pos, theta, eps2,
			t.acc, t.pot, r.cfg.WorkersPerRank, &r.stats.Grav, r.met.ListLenHist())
		d := time.Since(tW)
		letWalk += d
		if r.obs != nil {
			r.obs.Span(r.eval, ph, obs.LaneCompute, 0, tW, tW.Add(d), int64(src))
			if ph == obs.PhaseWalkLET {
				r.met.LETWalkHist().ObserveDuration(d)
			}
		}
		if forced != 0 {
			panic(fmt.Sprintf("sim: rank %d: %s forced %d accepts", me, from, forced))
		}
	}

	// recordArrival notes a full LET's arrival for the hidden-vs-straggler
	// analysis: a trace instant plus the epoch timestamp the offsets are
	// computed from once the local walk's completion time is known.
	recordArrival := func(at time.Time, from int) {
		if r.obs == nil {
			return
		}
		r.obs.Mark(r.eval, obs.PhaseArrive, obs.LaneCompute, at, int64(from))
		r.arrivalNS = append(r.arrivalNS, r.obs.Since(at))
	}

	// walkEndNS is the obs-epoch timestamp of local-walk completion; LET
	// arrival offsets (the Fig. 5 hidden-vs-straggler signal) are measured
	// against it at the end of the phase.
	var walkEndNS int64
	markWalkDone := func() {
		if r.obs == nil {
			return
		}
		now := time.Now()
		r.obs.Mark(r.eval, obs.PhaseWalkDone, obs.LaneCompute, now, 0)
		walkEndNS = r.obs.Since(now)
	}

	if r.cfg.SerialLET {
		// --- Decide, for every remote pair, whether boundary trees
		// suffice, from the allgathered data.
		sendTo := make([]int, 0, p)   // ranks that need a full LET from us
		expectFrom := make([]int, 0)  // ranks that will push a full LET to us
		useBoundary := make([]int, 0) // ranks whose boundary tree serves as LET
		for j := 0; j < p; j++ {
			if j == me {
				continue
			}
			if !lettree.Sufficient(myBoundary, boundaries[j].Box, theta) {
				sendTo = append(sendTo, j)
			}
			if lettree.Sufficient(boundaries[j], boundaries[me].Box, theta) {
				useBoundary = append(useBoundary, j)
			} else {
				expectFrom = append(expectFrom, j)
			}
		}

		// Builds on the compute thread, ahead of the walk: the no-overlap
		// baseline.
		tS := time.Now()
		for _, j := range sendTo {
			buildLET(j, 0)
		}
		waitTime += time.Since(tS)
		r.stats.LETsSent += len(sendTo)

		// Baseline ordering: full local walk, then boundary trees, then
		// blocking receives in deterministic (ascending peer) order. The
		// fixed receive order makes the floating-point accumulation order —
		// and therefore the accelerations — bitwise reproducible. Sends are
		// eager, so the known-source receives cannot deadlock.
		tL := time.Now()
		r.tree.WalkObs(t.groups, t.pos, theta, eps2, t.acc, t.pot,
			r.cfg.WorkersPerRank, &r.stats.Grav, r.met.ListLenHist())
		localWalk = time.Since(tL)
		r.obs.Span(r.eval, obs.PhaseWalkLocal, obs.LaneCompute, 0, tL, tL.Add(localWalk), int64(len(t.groups)))
		markWalkDone()
		for _, j := range useBoundary {
			walkRemote(boundaries[j], j, obs.PhaseWalkBound, fmt.Sprintf("boundary of %d judged sufficient but", j))
			r.stats.BoundaryUsed++
		}
		for _, j := range expectFrom {
			tR := time.Now()
			msg := r.comm.Recv(j, tag)
			d := time.Since(tR)
			waitTime += d
			if r.obs != nil {
				r.obs.Span(r.eval, obs.PhaseWaitLET, obs.LaneCompute, 0, tR, tR.Add(d), int64(j))
			}
			recordArrival(tR.Add(d), j)
			walkRemote(msg.(*lettree.LET), j, obs.PhaseWalkLET, "received LET")
			r.stats.LETsRecv++
		}
	} else {
		// --- Overlapped schedule. Boundaries are processed the moment they
		// arrive (between local-walk chunks): each one immediately yields
		// the pairwise sufficiency decisions — feeding the LET-builder pool
		// without waiting for the slowest peer — and sufficient boundary
		// trees are banked as guaranteed work for the straggler window
		// after the local walk.
		bLeft := p - 1  // boundaries still in flight
		expectFrom := 0 // full LETs that will arrive for us (grows as boundaries land)
		letsSent := 0
		var boundaryWalks []int   // ranks whose boundary tree serves as LET
		jobs := make(chan int, p) // full-LET destinations, fed per arrival
		processBoundary := func(from int, bt *lettree.LET) {
			boundaries[from] = bt
			if !lettree.Sufficient(myBoundary, bt.Box, theta) {
				letsSent++
				jobs <- from // never blocks: cap p, at most p-1 jobs
			}
			if lettree.Sufficient(bt, myBoundary.Box, theta) {
				boundaryWalks = append(boundaryWalks, from)
			} else {
				expectFrom++
			}
			if bLeft--; bLeft == 0 {
				close(jobs)
			}
		}
		if bLeft == 0 { // single rank: no boundaries in flight
			close(jobs)
		}

		// Builder pool: consumes destinations as boundaries arrive, so
		// construction starts while most peers are still walking. The
		// boundaries[j] store in processBoundary happens-before the jobs
		// send, so builders safely read the destination box. steal is the
		// compute thread's private view of the queue: it is nilled out once
		// drained, while the builders keep ranging over jobs itself.
		steal := jobs
		for w := 0; w < r.cfg.letBuilders(p-1); w++ {
			builders.Add(1)
			go func(w int) {
				defer builders.Done()
				for j := range jobs {
					buildLET(j, w)
				}
			}(w)
		}

		// Compute: interleave local-tree chunks with boundary processing
		// and walks of already-arrived LETs, polling the mailbox between
		// chunks. Chunks are sized to give the pipeline regular poll points
		// while keeping each chunk wide enough to feed the walk worker pool.
		chunk := (len(t.groups) + 15) / 16
		if chunk < r.cfg.WorkersPerRank {
			chunk = r.cfg.WorkersPerRank
		}
		letRecvd := 0
		pollLET := func(overlapped bool) bool {
			from, msg, ok := r.comm.TryRecvAny(tag)
			if !ok {
				return false
			}
			recordArrival(time.Now(), from)
			walkRemote(msg.(*lettree.LET), from, obs.PhaseWalkLET, "received LET")
			letRecvd++
			r.stats.LETsRecv++
			if overlapped {
				r.stats.LETsOverlapped++
			}
			return true
		}
		pending := t.groups
		for len(pending) > 0 {
			if bLeft > 0 {
				if from, msg, ok := r.comm.TryRecvAny(btag); ok {
					processBoundary(from, msg.(*lettree.LET))
					continue
				}
			}
			if pollLET(true) {
				continue
			}
			n := chunk
			if n > len(pending) {
				n = len(pending)
			}
			tL := time.Now()
			r.tree.WalkObs(pending[:n], t.pos, theta, eps2, t.acc, t.pot,
				r.cfg.WorkersPerRank, &r.stats.Grav, r.met.ListLenHist())
			d := time.Since(tL)
			localWalk += d
			r.obs.Span(r.eval, obs.PhaseWalkLocal, obs.LaneCompute, 0, tL, tL.Add(d), int64(n))
			pending = pending[n:]
		}
		markWalkDone()

		// Boundaries that still haven't arrived gate the rest of the phase
		// (until they land we don't know which peers owe us a LET); the
		// blocked time is exposed boundary-exchange cost.
		for bLeft > 0 {
			tR := time.Now()
			from, msg := r.comm.RecvAny(btag)
			d := time.Since(tR)
			boundaryTime += d
			r.obs.Span(r.eval, obs.PhaseBoundary, obs.LaneCompute, 0, tR, tR.Add(d), int64(from))
			processBoundary(from, msg.(*lettree.LET))
		}

		// Banked boundary trees are guaranteed-local work: walk them now,
		// while straggler LETs are still in flight.
		for _, j := range boundaryWalks {
			walkRemote(boundaries[j], j, obs.PhaseWalkBound, fmt.Sprintf("boundary of %d judged sufficient but", j))
			r.stats.BoundaryUsed++
		}

		// Straggler drain. Before blocking on a remote LET the compute
		// thread steals queued LET-build jobs from its own pool — finishing
		// sends sooner helps the peers this rank is waiting on. jobs is
		// closed by now, so the steal receive never blocks.
		for letRecvd < expectFrom {
			if pollLET(false) {
				continue
			}
			if steal != nil {
				if j, ok := <-steal; ok {
					buildLET(j, 0)
					continue
				}
				steal = nil
			}
			tR := time.Now()
			from, msg := r.comm.RecvAny(tag)
			d := time.Since(tR)
			waitTime += d
			if r.obs != nil {
				r.obs.Span(r.eval, obs.PhaseWaitLET, obs.LaneCompute, 0, tR, tR.Add(d), int64(from))
			}
			recordArrival(tR.Add(d), from)
			walkRemote(msg.(*lettree.LET), from, obs.PhaseWalkLET, "received LET")
			letRecvd++
			r.stats.LETsRecv++
		}

		// Builds still queued have no receiver to overlap with any more:
		// run them here instead of idling in the pool wait below.
		if steal != nil {
			for j := range steal {
				buildLET(j, 0)
			}
		}
		r.stats.LETsSent += letsSent
	}

	// Wait for our own sends to finish building (they overlap the walks).
	tWd := time.Now()
	builders.Wait()
	dWd := time.Since(tWd)
	waitTime += dWd
	r.obs.Span(r.eval, obs.PhaseWaitLET, obs.LaneCompute, 0, tWd, tWd.Add(dWd), -1)
	for _, b := range sentBytes {
		r.stats.LETBytesSent += b
	}

	// Fold the evaluation's LET arrivals into the arrival-offset histogram:
	// arrival time minus local-walk completion, negative when communication
	// was fully hidden behind the walk, positive when the compute side had to
	// wait (a straggler sender).
	if r.obs != nil {
		worst := int64(math.MinInt64)
		for _, a := range r.arrivalNS {
			off := a - walkEndNS
			r.met.LETArrivalHist().Observe(off)
			if off > worst {
				worst = off
			}
		}
		if n := len(r.arrivalNS); n > 0 {
			r.stats.WorstArrival = time.Duration(worst)
			r.stats.ArrivalsSeen = n
		}
		r.arrivalNS = r.arrivalNS[:0]
	}

	r.stats.Times.GravLocal = localWalk
	r.stats.Times.GravLET = letWalk
	r.stats.Times.NonHiddenComm = boundaryTime + waitTime
}

// finishForces applies the target-local post-processing of a gravity phase:
// the softened self-interaction fix, the G scaling, and the static external
// field. It operates purely on t's arrays, so it serves both the full
// pipeline (t aliases the rank's tree-ordered slices) and active-subset
// evaluations (t aliases the compact gather buffers). The caller stores
// t.ext back into the matching rank slice — finishForces may reallocate it.
func (r *rank) finishForces(t *walkTargets) {
	// Remove the softened self-interaction contributed by each particle's
	// own leaf (acc contribution is exactly zero; potential is -m/ε).
	if r.cfg.Eps > 0 {
		for i := range t.pot {
			t.pot[i] += t.mass[i] / r.cfg.Eps
		}
	}

	// Scale by the unit system's gravitational constant (forces and
	// potentials are linear in G; kernels compute the G=1 sums).
	if g := r.cfg.G; g != 1 {
		for i := range t.acc {
			t.acc[i] = t.acc[i].Scale(g)
			t.pot[i] *= g
		}
	}

	// Static external field (analytic halo; §I "type 1" simulations). The
	// field potential is kept in its own slice: t.pot stays the physical
	// self-gravity potential (reported by Accelerations), while Energy sums
	// ½·self + ext, the ½ applying only to the pairwise part.
	if ext := r.cfg.External; ext != nil {
		t.ext = resize(t.ext, len(t.pos))
		for i := range t.acc {
			a, ep := ext(t.pos[i])
			t.acc[i] = t.acc[i].Add(a)
			t.ext[i] = ep
		}
	} else {
		t.ext = t.ext[:0]
	}
}

func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
