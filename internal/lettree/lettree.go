// Package lettree implements the Local Essential Tree (LET) machinery of the
// paper's multi-GPU parallelization (§III.B.2):
//
//   - Boundary trees: a shallow multipole-only truncation of the local
//     octree that every rank pushes to every other rank (point-to-point, or
//     one blocking allgather in the SerialLET oracle). The paper reuses this
//     structure for two purposes: as the remote-domain geometry description
//     needed to build LETs, and — for sufficiently distant rank pairs —
//     directly as the LET itself, avoiding any further communication.
//
//   - The sufficiency predicate: a receiver-reproducible MAC check deciding
//     whether a boundary tree alone can serve a target domain. Both the
//     sender and the receiver evaluate the same predicate on the same
//     exchanged boundary trees ("double the compute work", as the paper puts
//     it), so no request/acknowledge round-trip is ever needed: the exchange
//     is push-only.
//
//   - Full LET construction: a walk of the local octree against a remote
//     domain's bounding geometry that emits exactly the cells and particles
//     the remote rank could need for any target group inside its domain.
//     Boundary trees and full LETs come from one pruned-copy recursion that
//     differs only in which cells it keeps open.
//
// A LET is a standalone serializable tree; the receiver computes gravity
// from it directly ("processed separately as soon as they arrive") with the
// same group walk as the local tree (octree.WalkGroups), which is what lets
// communication hide behind the local-tree computation.
package lettree

import (
	"bonsai/internal/grav"
	"bonsai/internal/octree"
	"bonsai/internal/vec"
)

// NilCell marks an absent child, as in package octree.
const NilCell = int32(-1)

// DefaultBoundaryDepth is how many levels of the local tree a boundary tree
// retains below its root.
const DefaultBoundaryDepth = 4

// Part is a source particle carried by a LET leaf.
type Part struct {
	Pos  vec.V3
	Mass float64
}

// Cell is one LET node. A cell with Openable == false carries only its
// multipole: the structure below it was pruned because (by the MAC) no
// target in the destination domain can ever need to open it.
type Cell struct {
	MP       grav.Multipole
	Side     float64
	Delta    float64
	Children [8]int32
	Leaf     bool
	Openable bool
	PStart   int32 // leaf particle range in LET.Parts
	PN       int32
}

// LET is a standalone essential tree: the root is Cells[0].
type LET struct {
	Cells []Cell
	Parts []Part
	// Box is the bounding box of the *owning* rank's particles; for boundary
	// trees this doubles as the remote-domain geometry other ranks test
	// against.
	Box vec.Box
}

// Empty reports whether the LET carries no mass.
func (l *LET) Empty() bool { return l == nil || len(l.Cells) == 0 }

// ---------------------------------------------------------------------------
// Construction

// BoundaryTree extracts the top `depth` levels of the local octree (depth <=
// 0 selects DefaultBoundaryDepth). Cells at the cut that still have
// substructure are marked non-openable and carry only multipoles; true
// leaves within the retained depth keep their particles, so the boundary
// tree is exact for any viewer it is sufficient for.
func BoundaryTree(t *octree.Tree, depth int, localBox vec.Box) *LET {
	if depth <= 0 {
		depth = DefaultBoundaryDepth
	}
	p := pruner{t: t, out: &LET{Box: localBox}, depth: depth}
	if t.Root() != octree.NilCell {
		p.copy(t.Root(), 0)
	}
	return p.out
}

// BuildFor constructs the full LET of the local octree for a remote domain
// whose particles lie inside remoteBox: every local cell that the MAC might
// require the remote to open is expanded, every distant cell is emitted as a
// closed multipole, and opened leaves contribute their particles.
//
// BuildFor only depends on the parent→child structure of the source tree,
// never on cell indices, so it is oblivious to whether the tree came from
// the serial or the parallel (subtree-stitched) constructor — which is also
// why builder goroutines can run against the shared tree concurrently with
// the walks. Cell storage is preallocated from the source tree size: LETs
// for nearby domains approach the full tree, distant ones stay tiny, and a
// quarter-size initial capacity avoids the repeated append regrowth that
// dominated construction for near neighbours.
func BuildFor(t *octree.Tree, remoteBox vec.Box, theta float64, localBox vec.Box) *LET {
	p := pruner{t: t, out: &LET{Box: localBox}, remote: remoteBox, theta: theta}
	if t.Root() != octree.NilCell {
		p.out.Cells = make([]Cell, 0, len(t.Cells)/4+8)
		p.copy(t.Root(), 0)
	}
	return p.out
}

// pruner is the one pruned-copy recursion behind boundary trees and full
// LETs. A copied cell is expanded when the keep-open rule holds: for a
// boundary tree (depth > 0), when it is a leaf or lies above the depth cut;
// for a full LET, when the MAC opens it from the remote box. Expanded leaves
// carry their particles; every other cell is a closed multipole.
type pruner struct {
	t      *octree.Tree
	out    *LET
	depth  int
	remote vec.Box
	theta  float64
}

// copy appends source cell src (at level lvl) and, if it is kept open, its
// particles or expanded children to p.out, returning its LET index.
func (p *pruner) copy(src int32, lvl int) int32 {
	sc := &p.t.Cells[src]
	idx := int32(len(p.out.Cells))
	p.out.Cells = append(p.out.Cells, Cell{
		MP:       sc.MP,
		Side:     sc.Side,
		Delta:    sc.Delta,
		Children: noChildren(),
		Leaf:     true,
	})
	var open bool
	if p.depth > 0 {
		open = sc.Leaf || lvl < p.depth
	} else {
		open = octree.MACOpen(p.remote, sc.MP.COM, sc.Side, sc.Delta, p.theta)
	}
	if !open {
		return idx // closed multipole; the viewer will never open it
	}
	c := &p.out.Cells[idx]
	c.Openable = true
	if sc.Leaf {
		c.PStart = int32(len(p.out.Parts))
		c.PN = sc.N
		for i := sc.Start; i < sc.Start+sc.N; i++ {
			p.out.Parts = append(p.out.Parts, Part{Pos: p.t.Pos[i], Mass: p.t.Mass[i]})
		}
		return idx
	}
	c.Leaf = false
	for o, ch := range sc.Children {
		if ch != octree.NilCell {
			ci := p.copy(ch, lvl+1)
			p.out.Cells[idx].Children[o] = ci
		}
	}
	return idx
}

func noChildren() [8]int32 {
	return [8]int32{NilCell, NilCell, NilCell, NilCell, NilCell, NilCell, NilCell, NilCell}
}

// ---------------------------------------------------------------------------
// Sufficiency

// Sufficient reports whether the LET (typically a boundary tree) contains
// enough structure to compute MAC-accurate forces for any target group
// inside targetBox: its traversal from targetBox never tries to open a
// pruned cell. Both sides of a rank pair evaluate this on identical inputs,
// which is what makes the paper's push protocol handshake-free.
func Sufficient(l *LET, targetBox vec.Box, theta float64) bool {
	if l.Empty() {
		return true
	}
	// An empty target box (a rank with no active walk targets this substep)
	// opens nothing: any tree is sufficient. Both the would-be sender and the
	// receiver see the same empty box, so neither builds nor expects a LET.
	if targetBox.Empty() {
		return true
	}
	var rec func(idx int32) bool
	rec = func(idx int32) bool {
		c := &l.Cells[idx]
		if c.MP.M == 0 {
			return true
		}
		if !octree.MACOpen(targetBox, c.MP.COM, c.Side, c.Delta, theta) {
			return true
		}
		if !c.Openable {
			return false
		}
		if c.Leaf {
			return true // particles present
		}
		for _, ch := range c.Children {
			if ch != NilCell && !rec(ch) {
				return false
			}
		}
		return true
	}
	return rec(0)
}

// ---------------------------------------------------------------------------
// Gravity from a LET

// Walk accumulates the gravitational forces exerted by the LET's mass on the
// target particles (grouped as in the local walk) through octree.WalkGroups.
// The returned count of forced accepts — pruned cells that a group needed to
// open but could not — is always zero when the LET was built or vetted for
// these targets; a non-zero value is a protocol violation.
func Walk(l *LET, groups []octree.Group, tpos []vec.V3, theta, eps2 float64,
	acc []vec.V3, pot []float64, workers int, st *grav.Stats) (forcedAccepts int64) {
	return octree.WalkGroups(l, groups, tpos, theta, eps2, acc, pot, workers, st, nil)
}

// GatherGroup is the LET's octree.Source traversal: it gathers accepted
// multipoles and opened-leaf particles straight into the SoA lists as it
// goes. A pruned cell the MAC asks to open is accepted as a multipole
// (degrading gracefully) and counted as forced.
func (l *LET) GatherGroup(groupBox vec.Box, theta float64, sc *octree.GroupScratch) (forced int64) {
	sc.PC.Reset()
	sc.PP.Reset()
	sc.Stack = append(sc.Stack[:0], 0)
	for len(sc.Stack) > 0 {
		idx := sc.Stack[len(sc.Stack)-1]
		sc.Stack = sc.Stack[:len(sc.Stack)-1]
		c := &l.Cells[idx]
		if c.MP.M == 0 {
			continue
		}
		if !octree.MACOpen(groupBox, c.MP.COM, c.Side, c.Delta, theta) {
			sc.PC.Append(c.MP)
			continue
		}
		if !c.Openable {
			sc.PC.Append(c.MP)
			forced++
			continue
		}
		if c.Leaf {
			for i := c.PStart; i < c.PStart+c.PN; i++ {
				sc.PP.Append(l.Parts[i].Pos, l.Parts[i].Mass)
			}
			continue
		}
		for _, ch := range c.Children {
			if ch != NilCell {
				sc.Stack = append(sc.Stack, ch)
			}
		}
	}
	return forced
}

// TotalMass returns the LET root's mass.
func (l *LET) TotalMass() float64 {
	if l.Empty() {
		return 0
	}
	return l.Cells[0].MP.M
}
