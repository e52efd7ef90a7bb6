package sim

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
)

// TestWorkerCountBitwiseInvariance is the end-to-end determinism guarantee
// for the multicore tree pipeline: a single-rank simulation stepped with 8
// workers per rank must produce bitwise-identical accelerations, potentials
// and trajectories to the serial (1-worker) run. The particle count exceeds
// the parallel-build threshold, so the concurrent subtree constructor, the
// parallel property sweep, group building, and the chunked sort/key loops are
// all genuinely exercised on the 8-worker side.
func TestWorkerCountBitwiseInvariance(t *testing.T) {
	parts := plummer(20_000, 5)

	run := func(workers int) *Simulation {
		s, err := New(Config{Ranks: 1, Theta: 0.5, Eps: 0.05, WorkersPerRank: workers}, parts)
		if err != nil {
			t.Fatal(err)
		}
		s.Run(2)
		return s
	}
	s1, s8 := run(1), run(8)

	a1, p1 := s1.Accelerations()
	a8, p8 := s8.Accelerations()
	for i := range a1 {
		if a1[i] != a8[i] || p1[i] != p8[i] {
			t.Fatalf("particle %d: acc/pot differ between 1 and 8 workers: %v/%v vs %v/%v",
				i, a1[i], p1[i], a8[i], p8[i])
		}
	}
	q1, q8 := s1.Particles(), s8.Particles()
	for i := range q1 {
		if q1[i].Pos != q8[i].Pos || q1[i].Vel != q8[i].Vel {
			t.Fatalf("particle %d: trajectory differs between 1 and 8 workers", i)
		}
	}
}

// TestLETBudgetEquivalence: capping the process-wide LET-builder budget only
// serializes construction, never changes what is built; an 8-rank run under a
// tight budget must match the unbudgeted run to floating-point accumulation
// noise (LET walk order depends on arrival order either way).
func TestLETBudgetEquivalence(t *testing.T) {
	parts := plummer(4_000, 6)

	run := func(budget int) ([]float64, *Simulation) {
		s, err := New(Config{Ranks: 8, Theta: 0.4, Eps: 0.05, WorkersPerRank: 2, LETBudget: budget}, parts)
		if err != nil {
			t.Fatal(err)
		}
		s.ComputeForces()
		acc, _ := s.Accelerations()
		mags := make([]float64, len(acc))
		for i, a := range acc {
			mags[i] = a.Norm2()
		}
		return mags, s
	}
	ref, _ := run(0)
	got, _ := run(2)
	var sum2, ref2 float64
	for i := range ref {
		d := math.Sqrt(ref[i]) - math.Sqrt(got[i])
		sum2 += d * d
		ref2 += ref[i]
	}
	if rms := math.Sqrt(sum2 / ref2); rms > 1e-12 {
		t.Errorf("budgeted run diverged from unbudgeted: rms %v", rms)
	}
	// The semaphore must drain completely once the runs finish.
	letBudget.mu.Lock()
	inUse := letBudget.inUse
	letBudget.mu.Unlock()
	if inUse != 0 {
		t.Errorf("letBudget has %d units leaked", inUse)
	}
}

// TestProcSemRespectsCapacity hammers the process semaphore from many
// goroutines and checks the concurrent-holder count never exceeds the cap.
func TestProcSemRespectsCapacity(t *testing.T) {
	sem := newProcSem()
	const cap, goroutines, rounds = 3, 32, 50
	var cur, max atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				sem.acquire(cap)
				c := cur.Add(1)
				for {
					m := max.Load()
					if c <= m || max.CompareAndSwap(m, c) {
						break
					}
				}
				cur.Add(-1)
				sem.release()
			}
		}()
	}
	wg.Wait()
	if m := max.Load(); m > cap {
		t.Errorf("observed %d concurrent holders, cap %d", m, cap)
	}
	if sem.inUse != 0 {
		t.Errorf("semaphore left %d units in use", sem.inUse)
	}
}

// TestSteadyStateTreePhasesAllocFree: once a rank's scratch is warm, the
// sort, tree-build, property, and group phases of a step allocate nothing at
// workers=1 — the per-step buffers (keys, sorter, reorder target, cell
// arenas, groups) are all owned by the rank and reused.
func TestSteadyStateTreePhasesAllocFree(t *testing.T) {
	parts := plummer(20_000, 7)
	s, err := New(Config{Ranks: 1, Theta: 0.5, Eps: 0.05, WorkersPerRank: 1}, parts)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(3) // warm every per-step buffer, including post-exchange sizes

	r := s.nodes[0].r
	if a := testing.AllocsPerRun(5, func() {
		r.sortBuild()
		r.tree.ComputePropertiesParallel(r.cfg.WorkersPerRank)
		r.groups = r.tree.MakeGroupsScratch(r.cfg.NGroup, r.cfg.WorkersPerRank, r.groups)
	}); a != 0 {
		t.Errorf("steady-state sort/tree/groups phases allocated %v per step, want 0", a)
	}
}
