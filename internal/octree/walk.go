package octree

import (
	"sync"
	"sync/atomic"

	"bonsai/internal/grav"
	"bonsai/internal/obs"
	"bonsai/internal/vec"
)

// MACOpen reports whether a cell must be opened for a target group box under
// the Bonsai MAC: open iff d < l/θ + δ, where d is the minimum distance from
// the group box to the cell's centre of mass com, l the cell side length and
// δ the COM offset from the geometric centre. Local tree cells and LET cells
// both carry the three inputs.
func MACOpen(groupBox vec.Box, com vec.V3, side, delta, theta float64) bool {
	open := side/theta + delta
	return groupBox.Dist2(com) < open*open
}

// A Source is a tree the group walk can evaluate: the local octree or a
// received LET. Empty reports whether it has no cells. GatherGroup traverses
// it once for one target group box and replaces sc.PC with the accepted
// multipoles and sc.PP with the particles of opened leaves, in the order the
// kernels evaluate them. It returns how many cells the MAC asked to open that
// the source had pruned and therefore accepted as multipoles instead.
type Source interface {
	Empty() bool
	GatherGroup(groupBox vec.Box, theta float64, sc *GroupScratch) (forced int64)
}

// GroupScratch holds one walk worker's reusable per-group buffers: traversal
// scratch, the SoA interaction lists the batched kernels stream, and the
// target block they accumulate into. Reusing one across groups (and steps)
// is allocation free once the buffers have grown to their working size.
type GroupScratch struct {
	Stack []int32   // traversal stack of sources that gather as they go
	Lists WalkLists // index lists of sources that collect before gathering
	PC    grav.PCSoA
	PP    grav.PPSoA
	Tg    grav.Targets
}

var scratchPool = sync.Pool{New: func() any { return new(GroupScratch) }}

// WalkGroups is the group walk every tree goes through: it computes the
// forces src exerts on the target particles, one interaction list per
// group, and *accumulates* them into acc and pot (callers zero them first
// when appropriate). Per group it calls src.GatherGroup, evaluates the
// particle-cell list before the particle-particle list, and scatters the
// group's block back; each group writes a disjoint [Start, Start+N) range,
// so workers never contend. workers (<=1 means 1) claim groups from a shared
// atomic counter, the caller's goroutine being one of them, so the tail of
// the group list is taken by whichever workers finish early. Interaction
// counts are added to st if non-nil, the list length of every group is
// recorded into listLen if non-nil (nil costs one branch per group), and the
// forced accepts of all groups are returned.
func WalkGroups(src Source, groups []Group, tpos []vec.V3, theta, eps2 float64,
	acc []vec.V3, pot []float64, workers int, st *grav.Stats, listLen *obs.Hist) (forced int64) {

	if src.Empty() || len(groups) == 0 {
		return 0
	}
	var next, forcedAll atomic.Int64
	work := func() {
		var local grav.Stats
		var f int64
		sc := scratchPool.Get().(*GroupScratch)
		for g := int(next.Add(1)) - 1; g < len(groups); g = int(next.Add(1)) - 1 {
			f += walkGroup(src, &groups[g], tpos, theta, eps2, acc, pot, sc, &local, listLen)
		}
		scratchPool.Put(sc)
		if st != nil {
			st.AddAtomic(local)
		}
		forcedAll.Add(f)
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return forcedAll.Load()
}

// walkGroup gathers one group's interaction list and evaluates the whole
// group through the batched kernels.
func walkGroup(src Source, g *Group, tpos []vec.V3, theta, eps2 float64,
	acc []vec.V3, pot []float64, sc *GroupScratch, st *grav.Stats, listLen *obs.Hist) int64 {

	forced := src.GatherGroup(g.Box, theta, sc)
	lo, hi := g.Start, g.Start+g.N
	sc.Tg.Gather(tpos[lo:hi])
	listLen.Observe(int64(sc.PC.Len() + sc.PP.Len()))

	grav.PCBatch(sc.Tg.X, sc.Tg.Y, sc.Tg.Z, &sc.PC, eps2, sc.Tg.AX, sc.Tg.AY, sc.Tg.AZ, sc.Tg.Pot)
	grav.PPBatch(sc.Tg.X, sc.Tg.Y, sc.Tg.Z, &sc.PP, eps2, sc.Tg.AX, sc.Tg.AY, sc.Tg.AZ, sc.Tg.Pot)
	sc.Tg.Scatter(acc[lo:hi], pot[lo:hi])

	st.PC += uint64(sc.PC.Len()) * uint64(g.N)
	st.PP += uint64(sc.PP.Len()) * uint64(g.N)
	return forced
}

// WalkLists is the per-group interaction list produced by a traversal. A
// WalkLists value owns its traversal scratch, so reusing one across Collect
// calls is allocation free once the buffers have grown to their working
// size.
type WalkLists struct {
	CellIdx []int32 // cells accepted as multipoles
	PartIdx []int32 // source particles from opened leaves

	stack []int32 // traversal scratch, reused across Collect calls
}

// Collect traverses the tree for one target group box and fills the
// interaction lists with the indices of accepted cells and of opened-leaf
// particles.
func (t *Tree) Collect(groupBox vec.Box, theta float64, out *WalkLists) {
	out.CellIdx = out.CellIdx[:0]
	out.PartIdx = out.PartIdx[:0]
	if len(t.Cells) == 0 {
		return
	}
	s := append(out.stack[:0], 0)
	for len(s) > 0 {
		idx := s[len(s)-1]
		s = s[:len(s)-1]
		c := &t.Cells[idx]
		if c.MP.M == 0 {
			continue
		}
		if !MACOpen(groupBox, c.MP.COM, c.Side, c.Delta, theta) {
			out.CellIdx = append(out.CellIdx, idx)
			continue
		}
		if c.Leaf {
			for i := c.Start; i < c.Start+c.N; i++ {
				out.PartIdx = append(out.PartIdx, i)
			}
			continue
		}
		for _, ch := range c.Children {
			if ch != NilCell {
				s = append(s, ch)
			}
		}
	}
	out.stack = s
}

// Empty reports whether the tree has no cells.
func (t *Tree) Empty() bool { return len(t.Cells) == 0 }

// GatherGroup is the tree's Source traversal: Collect, then copy the
// accepted multipoles and opened-leaf particles into the SoA lists. A local
// tree is never pruned, so it forces no accepts.
func (t *Tree) GatherGroup(groupBox vec.Box, theta float64, sc *GroupScratch) int64 {
	t.Collect(groupBox, theta, &sc.Lists)
	sc.PC.Reset()
	for _, ci := range sc.Lists.CellIdx {
		sc.PC.Append(t.Cells[ci].MP)
	}
	sc.PP.Reset()
	for _, pj := range sc.Lists.PartIdx {
		sc.PP.Append(t.Pos[pj], t.Mass[pj])
	}
	return 0
}

// Walk computes the forces this tree's mass exerts on the target particles
// through WalkGroups, accumulating into acc and pot.
func (t *Tree) Walk(groups []Group, tpos []vec.V3, theta, eps2 float64,
	acc []vec.V3, pot []float64, workers int, st *grav.Stats) {
	WalkGroups(t, groups, tpos, theta, eps2, acc, pot, workers, st, nil)
}
