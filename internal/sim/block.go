package sim

// Hierarchical power-of-two block timesteps (Config.BlockSteps), the
// individual-timestep scheme of GADGET-style tree-codes adapted to the
// paper's distributed pipeline. A top-level step of length DT is cut into a
// grid of S = 2^MaxRungs substeps of length h = DT/S; particle i integrates
// at dt_i = DT/2^rung_i with the rung chosen from the acceleration criterion
// dt_i ≈ EtaDT·sqrt(Eps/|a_i|), snapped down to the nearest power-of-two
// fraction of DT. A substep advances the system between consecutive OCCUPIED
// barriers: only the particles whose rung has a kick barrier there receive
// forces (the "active block"); everything else drifts. Because every
// particle's drift velocity is constant between its own kicks, drifting ALL
// particles synchronously at every substep is exact — it keeps the whole
// system at one shared time, which the force evaluation needs anyway (the
// active block feels forces from every particle, at the current time).
//
// Distributed determinism: each rank holds an allreduced copy of the global
// rung population (rungPop), so every rank computes the same next occupied
// barrier, the same active/total counts, and the same full-vs-subset path
// choice with no further handshakes. Rung updates happen only at a
// particle's own kick barriers (coarsening additionally requires the coarser
// rung to be aligned at the barrier), so the population evolves identically
// everywhere.
//
// Tree reuse: across the substeps of one step, the Morton order and cell
// structure of the octree are kept and only the multipoles are recomputed on
// the drifted positions (Tree.RefreshProperties). A full rebuild runs at
// top-of-step barriers, after a domain exchange, and whenever any rank's
// accumulated drift since the last build exceeds driftFrac of its smallest
// leaf-cell side — a collective vote, so every rank rebuilds together and
// the collective call sequence stays aligned.
//
// With MaxRungs == 0 the grid has a single substep, every particle is active
// at every barrier, every evaluation takes the full rebuild+walk path, and
// the kick/drift arithmetic reduces to the global-dt expressions exactly —
// the block path is then bitwise-identical to the plain leapfrog.

import (
	"math"
	"time"

	"bonsai/internal/mpi"
	"bonsai/internal/obs"
	"bonsai/internal/octree"
	"bonsai/internal/vec"
)

// driftFrac is the tree-reuse bound: a rebuild is voted once any particle
// has drifted farther than driftFrac × (smallest leaf-cell side) from its
// position at build time. 0.25 keeps multipole and MAC errors from drifted
// cell contents well under the opening-angle error budget while letting
// typical substeps reuse the tree.
const driftFrac = 0.25

// blockEval describes one block-timestep force evaluation for the metrics
// stream and the step summary. Every field is globally agreed.
type blockEval struct {
	boundary int  // substep barrier the evaluation ran at (1..S; 0 = priming)
	activeN  int  // global active-particle count (0 when MaxRungs == 0)
	totalN   int  // global particle count (0 when MaxRungs == 0)
	rebuilt  bool // full tree rebuild (vs multipole refresh on the reused tree)
}

// activeAt reports whether a particle on the given rung has a kick barrier
// at substep s of an S-substep grid: rung k kicks every S>>k substeps.
func activeAt(rung uint8, s, S int) bool { return s%(S>>rung) == 0 }

// rungFor snaps the acceleration timestep criterion to a rung:
// the largest k ≤ MaxRungs with DT/2^k ≤ EtaDT·sqrt(Eps/|a|), found by
// halving (no logarithms: the loop is exact and deterministic across
// platforms). Zero or non-finite accelerations park on rung 0.
func (r *rank) rungFor(a vec.V3) uint8 {
	max := r.cfg.MaxRungs
	if max <= 0 {
		return 0
	}
	an := a.Norm()
	if an == 0 || math.IsNaN(an) || math.IsInf(an, 0) {
		return 0
	}
	want := r.cfg.EtaDT * math.Sqrt(r.cfg.Eps/an)
	k, dt := 0, r.cfg.DT
	for k < max && dt > want {
		dt /= 2
		k++
	}
	return uint8(k)
}

// assignRungs sets every particle's rung from its current acceleration —
// the fresh-start initialization after the priming force evaluation.
func (r *rank) assignRungs() {
	for i := range r.parts {
		r.parts[i].Rung = r.rungFor(r.acc[i])
	}
}

// updateRungs re-evaluates the rung of every particle active at barrier s
// from its freshly computed acceleration. Refining (larger rung, smaller dt)
// is always allowed at a particle's own barrier; coarsening moves one level
// at a time and only while the coarser rung also has a barrier at s, so a
// particle never skips a kick it already owes. The rule is idempotent at a
// fixed barrier, which lets a restart re-run it harmlessly.
func (r *rank) updateRungs(s, S int) {
	for i := range r.parts {
		cur := r.parts[i].Rung
		if !activeAt(cur, s, S) {
			continue
		}
		want := r.rungFor(r.acc[i])
		if want >= cur {
			r.parts[i].Rung = want
			continue
		}
		k := cur
		for k > want && s%(S>>(k-1)) == 0 {
			k--
		}
		r.parts[i].Rung = k
	}
}

// reduceRungPop allreduces the local rung histogram so every rank holds the
// same global population. The result slice is shared between in-process
// ranks and must be treated as read-only.
func (r *rank) reduceRungPop() {
	n := r.cfg.MaxRungs + 1
	r.popScratch = resize(r.popScratch, n)
	for k := range r.popScratch {
		r.popScratch[k] = 0
	}
	for i := range r.parts {
		r.popScratch[r.parts[i].Rung]++
	}
	r.rungPop = mpi.Allreduce(r.comm, r.popScratch, func(a, b []float64) []float64 {
		out := make([]float64, len(a))
		for i := range a {
			out[i] = a[i] + b[i]
		}
		return out
	}, n*8)
}

// nextBoundary returns the next occupied barrier after the current substep:
// the smallest multiple of any populated rung's kick period that lies ahead.
// Unpopulated rungs contribute no barriers, so a step with every particle on
// rung 0 runs exactly one substep regardless of MaxRungs.
func (r *rank) nextBoundary(S int) int {
	next := S
	for k, n := range r.rungPop {
		if n <= 0 {
			continue
		}
		p := S >> k
		if b := (r.sub/p + 1) * p; b < next {
			next = b
		}
	}
	return next
}

// globalActive returns the globally-agreed number of particles active at
// barrier s and the global total, from the allreduced rung population. Both
// are 0 before the first reduction (MaxRungs == 0 never reduces), which
// callers treat as "everything is active".
func (r *rank) globalActive(s, S int) (active, total int) {
	for k, n := range r.rungPop {
		total += int(n)
		if s%(S>>k) == 0 {
			active += int(n)
		}
	}
	return active, total
}

// trackBuild snapshots the tree-reuse reference state after a full rebuild:
// the build-time positions (drift is measured against them), the smallest
// leaf side (the drift bound's length scale), and a cleared drift maximum.
func (r *rank) trackBuild() {
	r.buildPos = append(r.buildPos[:0], r.pos...)
	r.minLeaf = r.tree.MinLeafSide()
	r.maxDrift2 = 0
	r.treeOK = true
}

// rebuildVote is the collective tree-reuse decision: each rank votes 1 when
// its accumulated drift exceeds the bound (or it has no valid reuse state),
// and any vote forces a rebuild everywhere — the build is collective, so all
// ranks must take the same branch.
func (r *rank) rebuildVote() bool {
	local := 0.0
	if !r.treeOK {
		local = 1
	} else if bound := driftFrac * r.minLeaf; r.maxDrift2 > bound*bound {
		local = 1
	}
	sum := mpi.Allreduce(r.comm, []float64{local}, func(a, b []float64) []float64 {
		return []float64{a[0] + b[0]}
	}, 8)
	return sum[0] > 0
}

// blockForces runs one substep force evaluation at the given barrier:
// rebuild or refresh the tree, determine the active block, and walk gravity
// for the active targets only (the full tree-ordered arrays when everyone is
// active). On return r.acc/r.pot are fresh for every active particle;
// inactive entries are unspecified (their stored accelerations are never
// used for kicks — each kick reads an acceleration computed at that same
// barrier).
func (r *rank) blockForces(step, eval int, domainUpdate, forceRebuild bool, boundary int) blockEval {
	r.stats = RankStats{}
	r.eval = eval
	t0 := time.Now()
	S := 1 << r.cfg.MaxRungs

	be := blockEval{boundary: boundary}
	be.rebuilt = forceRebuild || domainUpdate || r.cfg.MaxRungs == 0 || r.rebuildVote()
	if be.rebuilt {
		r.buildPipeline(step, eval, domainUpdate)
		if r.cfg.MaxRungs > 0 {
			r.trackBuild()
		}
	} else {
		// Reuse the tree: same Morton order and cell structure, multipoles
		// recomputed on the drifted positions (r.pos tracks every drift).
		tP := time.Now()
		r.tree.RefreshProperties(r.cfg.WorkersPerRank)
		r.stats.Times.TreeProps = time.Since(tP)
		r.obs.Span(eval, obs.PhaseTreeProps, obs.LaneCompute, 0, tP, tP.Add(r.stats.Times.TreeProps), 1)
	}

	// The active block at this barrier, in tree order — recomputed after any
	// rebuild or exchange, so the indices are current.
	r.active = r.active[:0]
	for i := range r.parts {
		if activeAt(r.parts[i].Rung, boundary, S) {
			r.active = append(r.active, int32(i))
		}
	}

	// Path choice from the shared rung population: every rank agrees, so the
	// collective structure of the gravity phase stays symmetric.
	be.activeN, be.totalN = r.globalActive(boundary, S)
	if full := be.totalN == 0 || be.activeN == be.totalN; full {
		t := r.fullTargets()
		r.gravity(eval%2, &t)
		r.finishForces(&t)
		r.extPot = t.ext

		// Work weights feed the next decomposition; decompositions happen at
		// top-of-step barriers, which always take this full-active path. A
		// particle on rung k (dt = DT/2^k in this repo's convention) is
		// force-evaluated 2^k times per step, so it carries 2^k shares of the
		// rank's measured flops — the per-rung weighting that keeps the
		// sampling decomposition balancing evaluations, not particle counts.
		// With MaxRungs == 0 every share is 1 and this reduces bitwise to the
		// uniform weight flops/n.
		if n := len(r.parts); n > 0 {
			tot := 0.0
			for i := range r.parts {
				tot += float64(uint64(1) << r.parts[i].Rung)
			}
			per := r.stats.Grav.Flops() / tot
			for i := range r.parts {
				r.parts[i].Weight = per * float64(uint64(1)<<r.parts[i].Rung)
			}
		}
	} else {
		r.subsetForces(eval)
	}

	r.stats.Times.Total = time.Since(t0)
	r.stats.Times.DeriveOther()
	r.stats.NLocal = len(r.parts)
	return be
}

// subsetForces walks gravity for the active block only: gather the active
// particles (Morton order preserved, so groups stay spatially compact) into
// the compact a* buffers, walk with the subset as targets, and scatter the
// results back. The advertised box bounds only the active targets, so the
// boundary/LET exchange ships exactly the data the active walks need — a
// rank whose peers' active boxes are distant sends smaller LETs, and a rank
// with no active particles advertises an empty box, which every peer's
// sufficiency check accepts symmetrically without building anything.
func (r *rank) subsetForces(eval int) {
	na := len(r.active)
	r.apos = resize(r.apos, na)
	r.amass = resize(r.amass, na)
	r.aacc = resize(r.aacc, na)
	r.apot = resize(r.apot, na)
	box := vec.EmptyBox()
	for j, i := range r.active {
		p := r.pos[i]
		r.apos[j] = p
		r.amass[j] = r.mass[i]
		r.aacc[j] = vec.V3{}
		r.apot[j] = 0
		box = box.Extend(p)
	}
	r.agroups = octree.GroupsOfScratch(r.apos, r.cfg.NGroup, r.cfg.WorkersPerRank, r.agroups)

	t := walkTargets{
		groups: r.agroups,
		pos:    r.apos,
		mass:   r.amass,
		acc:    r.aacc,
		pot:    r.apot,
		ext:    r.aext,
		box:    box,
	}
	r.gravity(eval%2, &t)
	r.finishForces(&t)
	r.aext = t.ext

	hasExt := len(t.ext) == na && na > 0
	if hasExt {
		// Mid-step rebuilds can leave inactive extPot entries stale or
		// zeroed; Energy is only meaningful at top-of-step barriers, where
		// the full-active evaluation refreshes the whole slice.
		r.extPot = resize(r.extPot, len(r.parts))
	}
	for j, i := range r.active {
		r.acc[i] = r.aacc[j]
		r.pot[i] = r.apot[j]
		if hasExt {
			r.extPot[i] = t.ext[j]
		}
	}
}

// blockPrime runs the priming evaluation at the current barrier, in lockstep
// with every other rank: accelerations for the first opening kicks, from
// which fresh starts assign initial rungs (restored runs keep the snapshot's
// rungs). domain selects the priming evaluation's domain update.
func (r *rank) blockPrime(step, eval int, domain bool) blockEval {
	if r.restored {
		r.reduceRungPop() // snapshot rungs drive the priming active set
	}
	be := r.blockForces(step, eval, domain, true, r.sub)
	if !r.restored && r.cfg.MaxRungs > 0 {
		r.assignRungs()
	}
	r.restored = false
	if r.cfg.MaxRungs > 0 {
		r.reduceRungPop()
	}
	return be
}

// blockSubstep advances this rank to the next occupied barrier in lockstep
// with every other rank: opening kicks, the synchronized drift, forces at the
// new barrier, closing kicks and the rung update. The priming evaluation
// (blockPrime) must have run. epoch reports whether the step still owes its
// domain update, which the evaluation at the top-of-step barrier pays. The
// returned boundary is 2^MaxRungs when the top-of-step barrier was crossed,
// which leaves sub == 0.
func (r *rank) blockSubstep(step, eval int, epoch bool) blockEval {
	S := 1 << r.cfg.MaxRungs
	h := r.cfg.DT / float64(S)
	s := r.sub
	tSub := time.Now()

	// Opening half-kicks for the block active at s, with the
	// accelerations the evaluation at s produced for exactly that block.
	tI := time.Now()
	for i := range r.parts {
		if activeAt(r.parts[i].Rung, s, S) {
			dti := float64(S>>r.parts[i].Rung) * h / 2
			r.parts[i].Vel = r.parts[i].Vel.Add(r.acc[i].Scale(dti))
		}
	}

	// Synchronized drift of EVERY particle to the next occupied barrier
	// (exact: drift velocity is constant between a particle's kicks).
	next := r.nextBoundary(S)
	dtd := float64(next-s) * h
	for i := range r.parts {
		r.parts[i].Pos = r.parts[i].Pos.Add(r.parts[i].Vel.Scale(dtd))
	}
	if r.cfg.MaxRungs > 0 {
		// Keep the tree's position view current and account the drift
		// against the reuse bound.
		for i := range r.parts {
			p := r.parts[i].Pos
			r.pos[i] = p
			if d := p.Sub(r.buildPos[i]).Norm2(); d > r.maxDrift2 {
				r.maxDrift2 = d
			}
		}
	}
	r.obs.Span(eval, obs.PhaseIntegrate, obs.LaneCompute, 0, tI, time.Now(), 0)

	// Forces at the new barrier. Top-of-step barriers force a rebuild and
	// carry the step's domain epoch — the block analog of the global
	// path's post-drift evaluation, including its "skip when the priming
	// evaluation already decomposed this step" rule, which the bitwise
	// equivalence at MaxRungs == 0 depends on.
	be := r.blockForces(step, eval, next == S && epoch, next == S, next)

	// Closing half-kicks for the block active at next (recomputed inside
	// blockForces, after any rebuild or exchange).
	tC := time.Now()
	for i := range r.parts {
		if activeAt(r.parts[i].Rung, next, S) {
			dti := float64(S>>r.parts[i].Rung) * h / 2
			r.parts[i].Vel = r.parts[i].Vel.Add(r.acc[i].Scale(dti))
		}
	}
	r.obs.Span(eval, obs.PhaseIntegrate, obs.LaneCompute, 0, tC, time.Now(), 1)

	// Rung updates happen at a particle's own barriers only, then the
	// population is re-reduced so every rank agrees on the next barrier.
	if r.cfg.MaxRungs > 0 {
		r.updateRungs(next, S)
		r.reduceRungPop()
	}
	r.obs.Span(eval, obs.PhaseSubstep, obs.LaneCompute, 0, tSub, time.Now(), int64(next))
	if next == S {
		next = 0
	}
	r.sub = next
	return be
}

// clampRungs bounds restored rung bytes to the configured hierarchy (a
// snapshot written with a deeper MaxRungs restarts on the coarser grid).
func (r *rank) clampRungs() {
	max := uint8(r.cfg.MaxRungs)
	for i := range r.parts {
		if r.parts[i].Rung > max {
			r.parts[i].Rung = max
		}
	}
}

// add accumulates another evaluation's stats into a step-level total.
func (a *RankStats) add(b RankStats) {
	a.Times.Add(b.Times)
	a.Grav.Add(b.Grav)
	a.NLocal = b.NLocal
	a.LETsSent += b.LETsSent
	a.LETsRecv += b.LETsRecv
	a.BoundaryUsed += b.BoundaryUsed
	a.LETBytesSent += b.LETBytesSent
	a.LETsOverlapped += b.LETsOverlapped
	if b.ArrivalsSeen > 0 && (a.ArrivalsSeen == 0 || b.WorstArrival > a.WorstArrival) {
		a.WorstArrival = b.WorstArrival
	}
	a.ArrivalsSeen += b.ArrivalsSeen
}
