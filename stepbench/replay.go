package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"bonsai"
	"bonsai/internal/body"
	"bonsai/internal/domain"
	"bonsai/internal/grav"
	"bonsai/internal/keys"
	"bonsai/internal/lettree"
	"bonsai/internal/mpi"
	"bonsai/internal/octree"
	"bonsai/internal/psort"
	"bonsai/internal/vec"
)

// The replay re-runs one force evaluation of a captured state from outside
// the program, calling each layer's public functions in the order a rank's
// pipeline does, with a span around every call. Spans of the evaluation
// proper hang under a "replay.eval" root; calls the evaluation does not make
// on this workload but whose layer cost is reported (the whole-call walk,
// the in-place refresh, the wire codec, the domain update, the transport
// probes) hang under a "replay.probe" root.

// physics mirrors the Config defaults the replay must agree with.
type physics struct {
	theta, eps, g         float64
	nleaf, ngroup, bdepth int
}

func physicsOf(c bonsai.Config) physics {
	ph := physics{theta: c.Theta, eps: c.Softening, g: c.GravConst,
		nleaf: c.NLeaf, ngroup: c.NGroup, bdepth: c.BoundaryDepth}
	if ph.theta <= 0 {
		ph.theta = 0.4
	}
	if ph.eps <= 0 {
		ph.eps = 0.01
	}
	if ph.g == 0 {
		ph.g = 1
	}
	if ph.nleaf <= 0 {
		ph.nleaf = 16
	}
	if ph.ngroup <= 0 {
		ph.ngroup = 64
	}
	if ph.bdepth <= 0 {
		ph.bdepth = 4
	}
	return ph
}

// snapshot is the live state captured between two timed steps.
type snapshot struct {
	parts  []bonsai.Particle // ID order
	owners []int             // rank per particle; nil when the API hides it
	counts []int             // particles per rank; nil with owners
	acc    []bonsai.Vec3     // program accelerations; nil when hidden
	stats  bonsai.StepStats  // the step that produced this state
}

// replayRank is one rank's side of the replayed evaluation.
type replayRank struct {
	ids      []int // ID-order index of each tree-ordered particle
	pos      []vec.V3
	mass     []float64
	box      vec.Box
	tree     *octree.Tree
	groups   []octree.Group
	boundary *lettree.LET
	acc      []vec.V3
	pot      []float64
	local    grav.Stats // local-tree interactions
	remote   grav.Stats // boundary-tree and LET interactions
	lists    int        // Σ interaction-list length over groups
	// Scratch owned by this rank, as in the program: the tree lives in sc.
	sc  octree.BuildScratch
	srt psort.Sorter
}

// evalResult holds what one replayed evaluation measured besides its spans.
type evalResult struct {
	pp, pc        uint64
	localPP       uint64
	localPC       uint64
	groups        int
	lists         int
	letBytes      []int
	boundaryUsed  int
	pairs         int
	migratedFrac  float64
	countImb      float64
	rttUS         float64
	allreduceUS   float64
	maxRelAccErr  float64
	fidelityCheck bool
	evalMS        float64 // wall time of the replay.eval root span
}

// replayer owns the tracer and the probe worlds of one traced run.
type replayer struct {
	tr    *tracer
	ph    physics
	ranks int
	// Transport probes run over the workload's own transport: rtt between
	// ranks 0 and 1, allreduce across all ranks.
	rttWorld, allWorld *mpi.World
}

func newReplayer(tr *tracer, w workload, sockDir string) (*replayer, error) {
	rp := &replayer{tr: tr, ph: physicsOf(w.cfg), ranks: w.ranks}
	if !w.unix {
		rp.rttWorld, rp.allWorld = mpi.NewWorld(2), mpi.NewWorld(w.ranks)
		return rp, nil
	}
	addrs := make([]string, w.ranks)
	local := make([]int, w.ranks)
	for r := range addrs {
		addrs[r] = filepath.Join(sockDir, fmt.Sprintf("%d-probe-r%d.sock", os.Getpid(), r))
		local[r] = r
	}
	world, err := mpi.NewSocketWorld(w.ranks, mpi.SocketConfig{Network: "unix", Addrs: addrs, Local: local})
	if err != nil {
		return nil, fmt.Errorf("probe world: %w", err)
	}
	rp.rttWorld, rp.allWorld = world, world
	return rp, nil
}

func (rp *replayer) close() error {
	err := rp.allWorld.Close()
	if rp.rttWorld != rp.allWorld {
		if e := rp.rttWorld.Close(); err == nil {
			err = e
		}
	}
	return err
}

// replay re-runs one force evaluation of snap under evaluation id eval.
func (rp *replayer) replay(eval int, snap snapshot) (evalResult, error) {
	t, ph, p := rp.tr, rp.ph, rp.ranks
	var res evalResult
	n := len(snap.parts)
	pos := make([]vec.V3, n)
	mass := make([]float64, n)
	for i, q := range snap.parts {
		pos[i] = vec.V3{X: q.Pos.X, Y: q.Pos.Y, Z: q.Pos.Z}
		mass[i] = q.Mass
	}

	owners, counts := snap.owners, snap.counts
	if owners == nil {
		// NodeSimulation hides ownership: derive it the way the program does at
		// start-up, a count-balanced decomposition of the even initial split,
		// outside the trace.
		initial := make([]int, n)
		for r := 0; r < p; r++ {
			for i := r * n / p; i < (r+1)*n/p; i++ {
				initial[i] = r
			}
		}
		owners, counts, _ = rp.domainProbe(newTracer(), eval, -1, snap.parts, initial, nil)
	}

	// --- The evaluation proper.
	root := t.begin(eval, -1, "replay.eval")
	ranks := make([]*replayRank, p)
	var grid keys.Grid
	t.do(eval, root, "keys.NewGrid", func() {
		box := vec.EmptyBox()
		for _, q := range pos {
			box = box.Extend(q)
		}
		grid = keys.NewGrid(box)
	})
	for r := 0; r < p; r++ {
		ranks[r] = rp.buildRank(eval, root, r, pos, mass, owners, grid)
	}

	// Pairwise sufficiency: a full LET from j to r is owed unless j's
	// boundary tree alone serves r's targets.
	need := make([][]bool, p) // need[r][j]: r walks a full LET from j
	for r := 0; r < p; r++ {
		need[r] = make([]bool, p)
		for j := 0; j < p; j++ {
			if j == r {
				continue
			}
			var ok bool
			t.do(eval, root, "lettree.Sufficient", func() {
				ok = lettree.Sufficient(ranks[j].boundary, ranks[r].boundary.Box, ph.theta)
			})
			need[r][j] = !ok
			res.pairs++
			if ok {
				res.boundaryUsed++
			}
		}
	}
	lets := make([][]*lettree.LET, p) // lets[r][j]: the full LET j sends r
	for r := 0; r < p; r++ {
		lets[r] = make([]*lettree.LET, p)
		for j := 0; j < p; j++ {
			if !need[r][j] {
				continue
			}
			var l *lettree.LET
			t.do(eval, root, "lettree.BuildFor", func() {
				l = lettree.BuildFor(ranks[j].tree, ranks[r].boundary.Box, ph.theta, ranks[j].box)
			})
			lets[r][j] = l
			res.letBytes = append(res.letBytes, l.WireBytes())
		}
	}
	eps2 := ph.eps * ph.eps
	for r, rr := range ranks {
		rp.localWalk(eval, root, rr, eps2)
		for j := 0; j < p; j++ {
			if j == r {
				continue
			}
			src := ranks[j].boundary
			if need[r][j] {
				src = lets[r][j]
			}
			var forced int64
			t.do(eval, root, "lettree.Walk", func() {
				forced = lettree.Walk(src, rr.groups, rr.pos, ph.theta, eps2, rr.acc, rr.pot, 1, &rr.remote)
			})
			if forced != 0 {
				t.end(root)
				return res, fmt.Errorf("replay: rank %d walk of rank %d's tree forced %d accepts", r, j, forced)
			}
		}
		res.localPP += rr.local.PP
		res.localPC += rr.local.PC
		res.pp += rr.local.PP + rr.remote.PP
		res.pc += rr.local.PC + rr.remote.PC
		res.groups += len(rr.groups)
		res.lists += rr.lists
	}
	t.end(root)
	res.evalMS = float64(t.dur(root)) / 1e6

	if snap.acc != nil {
		res.fidelityCheck = true
		res.maxRelAccErr = maxRelErr(ranks, snap.acc, ph.g)
	}

	// --- Probes.
	probe := t.begin(eval, -1, "replay.probe")
	for _, rr := range ranks {
		acc := make([]vec.V3, len(rr.pos))
		pot := make([]float64, len(rr.pos))
		t.do(eval, probe, "octree.Tree.Walk", func() {
			rr.tree.Walk(rr.groups, rr.pos, ph.theta, eps2, acc, pot, 1, nil)
		})
		t.do(eval, probe, "octree.RefreshProperties", func() { rr.tree.RefreshProperties(1) })
	}
	var shipped []*lettree.LET
	for _, rr := range ranks {
		shipped = append(shipped, rr.boundary)
	}
	for r := range lets {
		for _, l := range lets[r] {
			if l != nil {
				shipped = append(shipped, l)
			}
		}
	}
	for _, l := range shipped {
		var buf []byte
		t.do(eval, probe, "lettree.Marshal", func() { buf = l.Marshal() })
		var err error
		t.do(eval, probe, "lettree.Unmarshal", func() { _, err = lettree.Unmarshal(buf) })
		if err != nil {
			t.end(probe)
			return res, fmt.Errorf("replay: LET round trip: %w", err)
		}
	}
	// Work weights as the program sets them for the next decomposition: each
	// rank's replayed flops spread evenly over its particles.
	weights := make([]float64, n)
	for _, rr := range ranks {
		st := grav.Stats{PP: rr.local.PP + rr.remote.PP, PC: rr.local.PC + rr.remote.PC}
		w := st.Flops() / float64(len(rr.ids))
		for _, id := range rr.ids {
			weights[id] = w
		}
	}
	_, _, res.migratedFrac = rp.domainProbe(t, eval, probe, snap.parts, owners, weights)
	res.countImb = imbalance(counts)
	payload := medianLET(shipped, res.letBytes)
	res.rttUS = rp.rttProbe(eval, probe, payload)
	res.allreduceUS = rp.allreduceProbe(eval, probe)
	t.end(probe)
	return res, nil
}

// buildRank runs one rank's tree side: Morton keys, the fused sort + build,
// multipoles, target groups and the boundary tree.
func (rp *replayer) buildRank(eval, parent, r int, pos []vec.V3, mass []float64, owners []int, grid keys.Grid) *replayRank {
	t, ph := rp.tr, rp.ph
	rr := &replayRank{}
	var inIdx []int
	for i, o := range owners {
		if o == r {
			inIdx = append(inIdx, i)
		}
	}
	k := len(inIdx)
	inPos := make([]vec.V3, k)
	inMass := make([]float64, k)
	for i, id := range inIdx {
		inPos[i], inMass[i] = pos[id], mass[id]
	}
	rank := t.begin(eval, parent, "rank")
	kv := make([]psort.KV, k)
	t.do(eval, rank, "keys.MortonOf", func() {
		for i, q := range inPos {
			kv[i] = psort.KV{Key: uint64(grid.MortonOf(q)), Idx: int32(i)}
		}
	})
	mk := make([]keys.Key, k)
	rr.pos = make([]vec.V3, k)
	rr.mass = make([]float64, k)
	rr.ids = make([]int, k)
	fill := func(lo, hi int) {
		psort.Permute(kv[lo:hi], inPos, rr.pos[lo:hi])
		psort.Permute(kv[lo:hi], inMass, rr.mass[lo:hi])
		psort.Permute(kv[lo:hi], inIdx, rr.ids[lo:hi])
		for i := lo; i < hi; i++ {
			mk[i] = keys.Key(kv[i].Key)
		}
	}
	t.do(eval, rank, "octree.SortBuildScratch", func() {
		rr.tree = octree.SortBuildScratch(&rr.sc, &rr.srt, kv, mk, rr.pos, rr.mass, grid, ph.nleaf, 1, fill)
	})
	t.do(eval, rank, "octree.ComputePropertiesParallel", func() { rr.tree.ComputePropertiesParallel(1) })
	t.do(eval, rank, "octree.MakeGroupsScratch", func() { rr.groups = rr.tree.MakeGroupsScratch(ph.ngroup, 1, nil) })
	rr.box = vec.EmptyBox()
	for _, q := range rr.pos {
		rr.box = rr.box.Extend(q)
	}
	t.do(eval, rank, "lettree.BoundaryTree", func() { rr.boundary = lettree.BoundaryTree(rr.tree, ph.bdepth, rr.box) })
	rr.acc = make([]vec.V3, k)
	rr.pot = make([]float64, k)
	t.end(rank)
	return rr
}

// localWalk is the program's local tree walk taken apart per group:
// traversal (Tree.Collect), gather into SoA scratch, the two batched
// kernels, and the scatter back — the same calls in the same order as the
// walk's inner loop.
func (rp *replayer) localWalk(eval, parent int, rr *replayRank, eps2 float64) {
	t, theta := rp.tr, rp.ph.theta
	walk := t.begin(eval, parent, "octree.walk.local")
	var lists octree.WalkLists
	var pp grav.PPSoA
	var pc grav.PCSoA
	var tg grav.Targets
	for g := range rr.groups {
		grp := &rr.groups[g]
		t.do(eval, walk, "octree.Tree.Collect", func() { rr.tree.Collect(grp.Box, theta, &lists) })
		lo, hi := grp.Start, grp.Start+grp.N
		t.do(eval, walk, "grav.gather", func() {
			pc.Reset()
			for _, ci := range lists.CellIdx {
				pc.Append(rr.tree.Cells[ci].MP)
			}
			pp.Reset()
			for _, pj := range lists.PartIdx {
				pp.Append(rr.tree.Pos[pj], rr.tree.Mass[pj])
			}
			tg.Gather(rr.pos[lo:hi])
		})
		t.do(eval, walk, "grav.PCBatch", func() {
			grav.PCBatch(tg.X, tg.Y, tg.Z, &pc, eps2, tg.AX, tg.AY, tg.AZ, tg.Pot)
		})
		t.do(eval, walk, "grav.PPBatch", func() {
			grav.PPBatch(tg.X, tg.Y, tg.Z, &pp, eps2, tg.AX, tg.AY, tg.AZ, tg.Pot)
		})
		t.do(eval, walk, "grav.Targets.Scatter", func() { tg.Scatter(rr.acc[lo:hi], rr.pot[lo:hi]) })
		rr.local.PC += uint64(pc.Len()) * uint64(grp.N)
		rr.local.PP += uint64(pp.Len()) * uint64(grp.N)
		rr.lists += pc.Len() + pp.Len()
	}
	t.end(walk)
}

// maxRelErr compares the replayed accelerations, scaled by G, with the
// program's (ID order): the largest |Δa|/|a| over all particles.
func maxRelErr(ranks []*replayRank, prog []bonsai.Vec3, g float64) float64 {
	worst := 0.0
	for _, rr := range ranks {
		for i, id := range rr.ids {
			a := rr.acc[i].Scale(g)
			b := vec.V3{X: prog[id].X, Y: prog[id].Y, Z: prog[id].Z}
			d := a.Sub(b).Norm() / b.Norm()
			if math.IsNaN(d) {
				return math.Inf(1)
			}
			worst = max(worst, d)
		}
	}
	return worst
}

// domainProbe replays a domain update over an in-process world of the
// workload's rank count, traced into t: Hilbert keys, SampleDecompose and
// Exchange on every rank concurrently. It returns the new ownership, the
// per-rank counts, and the fraction of particles that changed rank.
func (rp *replayer) domainProbe(t *tracer, eval, parent int, parts []bonsai.Particle, owners []int, weights []float64) ([]int, []int, float64) {
	p := rp.ranks
	world := mpi.NewWorld(p)
	local := make([][]body.Particle, p)
	box := vec.EmptyBox()
	for i, q := range parts {
		bp := body.Particle{
			Pos:  vec.V3{X: q.Pos.X, Y: q.Pos.Y, Z: q.Pos.Z},
			Vel:  vec.V3{X: q.Vel.X, Y: q.Vel.Y, Z: q.Vel.Z},
			Mass: q.Mass, ID: int64(i),
		}
		if weights != nil {
			bp.Weight = weights[i]
		}
		local[owners[i]] = append(local[owners[i]], bp)
		box = box.Extend(bp.Pos)
	}
	grid := keys.NewGrid(box)
	out := make([][]body.Particle, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := world.Comm(r)
			mine := local[r]
			hk := make([]keys.Key, len(mine))
			t.do(eval, parent, "keys.HilbertOf", func() {
				for i := range mine {
					hk[i] = grid.HilbertOf(mine[i].Pos)
				}
			})
			var w []float64
			if weights != nil {
				w = make([]float64, len(mine))
				for i := range mine {
					w[i] = mine[i].Weight
				}
			}
			var dec domain.Decomposition
			t.do(eval, parent, "domain.SampleDecompose", func() { dec = domain.SampleDecompose(c, hk, w, domain.Options{}) })
			t.do(eval, parent, "domain.Exchange", func() { out[r] = domain.Exchange(c, dec, mine, grid) })
		}(r)
	}
	wg.Wait()
	newOwners := make([]int, len(parts))
	counts := make([]int, p)
	moved := 0
	for r, mine := range out {
		counts[r] = len(mine)
		for _, q := range mine {
			if owners[q.ID] != r {
				moved++
			}
			newOwners[q.ID] = r
		}
	}
	return newOwners, counts, float64(moved) / float64(len(parts))
}

// medianLET picks the shipped full LET of median wire size (a boundary tree
// when no full LET moved).
func medianLET(shipped []*lettree.LET, letBytes []int) *lettree.LET {
	cands := shipped
	if len(letBytes) > 0 {
		cands = shipped[len(shipped)-len(letBytes):]
	}
	s := append([]*lettree.LET(nil), cands...)
	sort.Slice(s, func(i, j int) bool { return s[i].WireBytes() < s[j].WireBytes() })
	return s[len(s)/2]
}

const (
	probeTag    = 4242
	probeRounds = 21
)

// rttProbe sends the payload from rank 0 to rank 1 and back probeRounds
// times and returns the median round trip in microseconds.
func (rp *replayer) rttProbe(eval, parent int, payload *lettree.LET) float64 {
	t := rp.tr
	c0, c1 := rp.rttWorld.Comm(0), rp.rttWorld.Comm(1)
	nb := payload.WireBytes()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < probeRounds; i++ {
			c1.Send(0, probeTag, c1.Recv(0, probeTag), nb)
		}
	}()
	rtts := make([]float64, 0, probeRounds)
	for i := 0; i < probeRounds; i++ {
		rt := t.begin(eval, parent, "mpi.rtt")
		t0 := time.Now()
		t.do(eval, rt, "mpi.Comm.Send", func() { c0.Send(1, probeTag, payload, nb) })
		t.do(eval, rt, "mpi.Comm.Recv", func() { c0.Recv(1, probeTag) })
		rtts = append(rtts, float64(time.Since(t0).Nanoseconds())/1e3)
		t.end(rt)
	}
	<-done
	return median(rtts)
}

// allreduceProbe runs probeRounds rung-population-sized allreduces across
// every rank and returns rank 0's median call time in microseconds.
func (rp *replayer) allreduceProbe(eval, parent int) float64 {
	t, p := rp.tr, rp.ranks
	sum := func(a, b []float64) []float64 {
		out := make([]float64, len(a))
		for i := range a {
			out[i] = a[i] + b[i]
		}
		return out
	}
	var us []float64
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := rp.allWorld.Comm(r)
			v := make([]float64, 17)
			for i := 0; i < probeRounds; i++ {
				if r != 0 {
					mpi.Allreduce(c, v, sum, 8*len(v))
					continue
				}
				t0 := time.Now()
				t.do(eval, parent, "mpi.Allreduce", func() { mpi.Allreduce(c, v, sum, 8*len(v)) })
				us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
			}
		}(r)
	}
	wg.Wait()
	return median(us)
}

// imbalance is max/mean of the per-rank counts.
func imbalance(counts []int) float64 {
	if len(counts) == 0 {
		return 0
	}
	total, most := 0, 0
	for _, c := range counts {
		total += c
		most = max(most, c)
	}
	return float64(most) * float64(len(counts)) / float64(total)
}
