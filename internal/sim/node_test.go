package sim

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"bonsai/internal/body"
	"bonsai/internal/mpi"
	"bonsai/internal/snapshot"
)

// newTestSockWorld builds an all-local socket world of the given size.
func newTestSockWorld(t *testing.T, network string, size int) *mpi.World {
	t.Helper()
	addrs := make([]string, size)
	local := make([]int, size)
	switch network {
	case "tcp":
		for i := range addrs {
			addrs[i] = "127.0.0.1:0"
		}
	case "unix":
		dir, err := os.MkdirTemp("", "bonsai-sock")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { os.RemoveAll(dir) })
		for i := range addrs {
			addrs[i] = filepath.Join(dir, fmt.Sprintf("r%d.sock", i))
		}
	}
	for i := range local {
		local[i] = i
	}
	w, err := mpi.NewSocketWorld(size, mpi.SocketConfig{Network: network, Addrs: addrs, Local: local})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w
}

// runNodes drives one Node per rank of w concurrently for steps steps, from
// identical global initial conditions, and returns the rank-0 node.
func runNodes(t *testing.T, cfg Config, w *mpi.World, parts []body.Particle, steps int) []*Node {
	t.Helper()
	size := w.Size()
	nodes := make([]*Node, size)
	for r := 0; r < size; r++ {
		n, err := NewNode(cfg, w, r, SliceForRank(parts, r, size))
		if err != nil {
			t.Fatal(err)
		}
		nodes[r] = n
	}
	var wg sync.WaitGroup
	for _, n := range nodes {
		wg.Add(1)
		go func(n *Node) {
			defer wg.Done()
			for i := 0; i < steps; i++ {
				n.Step()
			}
		}(n)
	}
	wg.Wait()
	return nodes
}

// gatherAll runs the collective GatherParticles on every node concurrently
// and returns root's view.
func gatherAll(nodes []*Node) []body.Particle {
	var wg sync.WaitGroup
	var got []body.Particle
	for r, n := range nodes {
		wg.Add(1)
		go func(r int, n *Node) {
			defer wg.Done()
			g := n.GatherParticles(0)
			if r == 0 {
				got = g
			}
		}(r, n)
	}
	wg.Wait()
	return got
}

// rmsPosDiff returns the rms position difference between two equally ordered
// particle sets.
func rmsPosDiff(t *testing.T, a, b []body.Particle) float64 {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("particle count mismatch: %d vs %d", len(a), len(b))
	}
	var sum float64
	for i := range a {
		if a[i].ID != b[i].ID {
			t.Fatalf("particle %d: id %d vs %d", i, a[i].ID, b[i].ID)
		}
		d := a[i].Pos.Sub(b[i].Pos)
		sum += d.Norm2()
	}
	return math.Sqrt(sum / float64(len(a)))
}

func TestNodeSocketMatchesInProcess(t *testing.T) {
	// Acceptance: an 8-rank run over the unix-socket transport reproduces the
	// in-process Simulation to rms < 1e-12. The runs are not bitwise
	// identical — LET arrival order differs between transports and float
	// summation is order-sensitive — but the jitter stays at rounding level.
	const (
		ranks = 8
		nPart = 1600
		steps = 6
	)
	cfg := Config{Ranks: ranks, DT: 1e-3}
	parts := plummer(nPart, 42)

	s, err := New(cfg, parts)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(steps)
	want := s.Particles()

	w := newTestSockWorld(t, "unix", ranks)
	nodes := runNodes(t, cfg, w, parts, steps)
	got := gatherAll(nodes)

	if rms := rmsPosDiff(t, want, got); rms >= 1e-12 {
		t.Errorf("rms position difference chan vs unix socket = %g, want < 1e-12", rms)
	}
	for i := range want {
		d := want[i].Vel.Sub(got[i].Vel)
		if d.Norm() >= 1e-10 {
			t.Errorf("particle id %d velocity differs by %g", want[i].ID, d.Norm())
			break
		}
	}
}

func TestNodeTCPPairBytesConsistentWithDeclared(t *testing.T) {
	// Acceptance: PairBytes over TCP reports real framed bytes, consistent
	// (±20%) with the sender-declared sizes (BytesSent) for the same run —
	// the typed codec's encodings match the WireBytes the sim declares, so
	// the two meters differ only by frame headers and small-message padding.
	const (
		ranks = 4
		nPart = 800
		steps = 3
	)
	cfg := Config{Ranks: ranks, DT: 1e-3}
	parts := plummer(nPart, 7)
	w := newTestSockWorld(t, "tcp", ranks)
	w.EnableObs(nil)
	runNodes(t, cfg, w, parts, steps)

	var framed, declared int64
	for from := 0; from < ranks; from++ {
		declared += w.BytesSent(from)
		for to := 0; to < ranks; to++ {
			framed += w.PairBytes(from, to)
		}
	}
	if declared == 0 || framed == 0 {
		t.Fatalf("no traffic metered: declared %d framed %d", declared, framed)
	}
	ratio := float64(framed) / float64(declared)
	if ratio < 0.8 || ratio > 1.2 {
		t.Errorf("framed/declared = %.3f (framed %d, declared %d), want within ±20%%",
			ratio, framed, declared)
	}
}

func TestNodeCheckpointRestartMatchesContinuous(t *testing.T) {
	// A run checkpointed at step 2 and resumed by fresh Nodes must finish
	// bitwise identical to one that never stopped: same transport, same
	// arrival determinism modulo LET ordering — so compare at rounding level.
	const (
		ranks = 4
		nPart = 800
		total = 4
		at    = 2
	)
	cfg := Config{Ranks: ranks, DT: 1e-3}
	parts := plummer(nPart, 11)

	// Continuous reference.
	wRef := mpi.NewWorld(ranks)
	ref := runNodes(t, cfg, wRef, parts, total)
	want := gatherAll(ref)

	// Run to the checkpoint, write it, throw the nodes away.
	dir := t.TempDir()
	w1 := mpi.NewWorld(ranks)
	nodes := runNodes(t, cfg, w1, parts, at)
	var wg sync.WaitGroup
	for _, n := range nodes {
		wg.Add(1)
		go func(n *Node) {
			defer wg.Done()
			if err := n.Checkpoint(dir); err != nil {
				t.Error(err)
			}
		}(n)
	}
	wg.Wait()

	step, nr, ok := snapshot.LatestCkpt(dir)
	if !ok || step != at || nr != ranks {
		t.Fatalf("LatestCkpt = (%d, %d, %v), want (%d, %d, true)", step, nr, ok, at, ranks)
	}

	// Fresh world, fresh nodes, restored slices — like restarted processes.
	w2 := mpi.NewWorld(ranks)
	resumed := make([]*Node, ranks)
	for r := 0; r < ranks; r++ {
		h, restored, err := snapshot.LoadRankCkpt(dir, step, r)
		if err != nil {
			t.Fatal(err)
		}
		n, err := NewNode(cfg, w2, r, restored)
		if err != nil {
			t.Fatal(err)
		}
		n.SetClock(int(h.Step), h.Time)
		resumed[r] = n
	}
	for _, n := range resumed {
		wg.Add(1)
		go func(n *Node) {
			defer wg.Done()
			for i := 0; i < total-at; i++ {
				n.Step()
			}
		}(n)
	}
	wg.Wait()
	got := gatherAll(resumed)
	if rms := rmsPosDiff(t, want, got); rms >= 1e-12 {
		t.Errorf("rms position difference continuous vs restarted = %g, want < 1e-12", rms)
	}
}

// TestNodeEnergyBeforeFirstStep: Node.Energy before any step runs the
// (collective) priming evaluation instead of indexing potentials that do not
// exist yet, and the steps after it follow bitwise the trajectory of nodes
// that only step.
func TestNodeEnergyBeforeFirstStep(t *testing.T) {
	const ranks = 3
	parts := plummer(600, 73)
	cfg := Config{Ranks: ranks, Theta: 0.5, Eps: 0.05, DT: 1e-3, DomainFreq: 2, SerialLET: true}
	run := func(energyFirst bool) ([]body.Particle, float64) {
		w := mpi.NewWorld(ranks)
		nodes := make([]*Node, ranks)
		for r := range nodes {
			n, err := NewNode(cfg, w, r, SliceForRank(parts, r, ranks))
			if err != nil {
				t.Fatal(err)
			}
			nodes[r] = n
		}
		var e0 float64
		var wg sync.WaitGroup
		for r, n := range nodes {
			wg.Add(1)
			go func(r int, n *Node) {
				defer wg.Done()
				if energyFirst {
					if k, p := n.Energy(); r == 0 {
						e0 = k + p
					}
				}
				for i := 0; i < 3; i++ {
					n.Step()
				}
			}(r, n)
		}
		wg.Wait()
		return gatherAll(nodes), e0
	}
	ref, _ := run(false)
	got, e0 := run(true)
	if math.IsNaN(e0) || math.IsInf(e0, 0) || e0 >= 0 {
		t.Errorf("initial energy %v, want a finite bound-system value", e0)
	}
	exactlyEqual(t, got, ref, "Node Energy then 3 steps")
}
