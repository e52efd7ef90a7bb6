package main

import (
	"fmt"
	"math"
	"math/rand"

	"bonsai"
	"bonsai/internal/grav"
	"bonsai/internal/vec"
)

// forceSample is the number of targets force_rms_err checks against direct
// summation over all N sources.
const forceSample = 1024

// checkStep fails a step whose statistics are not finite or whose particle
// count differs from the workload's.
func checkStep(st bonsai.StepStats, n int) error {
	if st.N != n {
		return fmt.Errorf("step %d: N=%d, want %d", st.Step, st.N, n)
	}
	if !allFinite(st.PPPerParticle, st.PCPerParticle, st.Flops, st.WalkGflops,
		st.AppGflops, st.OverlapFrac, st.ActiveFrac) {
		return fmt.Errorf("step %d: non-finite statistics", st.Step)
	}
	return nil
}

// checkState verifies the end-of-run state against the initial conditions:
// finite values, the same particle count and total mass, the same unique
// IDs. Both slices are in ID order.
func checkState(initial, final []bonsai.Particle) error {
	if len(final) != len(initial) {
		return fmt.Errorf("N not conserved: %d -> %d", len(initial), len(final))
	}
	var m0, m1 float64
	seen := make(map[int64]bool, len(final))
	for i, p := range final {
		if !allFinite(p.Pos.X, p.Pos.Y, p.Pos.Z, p.Vel.X, p.Vel.Y, p.Vel.Z, p.Mass) {
			return fmt.Errorf("particle %d has non-finite state", p.ID)
		}
		if seen[p.ID] {
			return fmt.Errorf("particle ID %d appears twice", p.ID)
		}
		seen[p.ID] = true
		if p.ID != initial[i].ID {
			return fmt.Errorf("particle ID %d missing from the final state", initial[i].ID)
		}
		m0 += initial[i].Mass
		m1 += p.Mass
	}
	if math.Abs(m1-m0) > 1e-12*math.Abs(m0) {
		return fmt.Errorf("total mass not conserved: %.17g -> %.17g", m0, m1)
	}
	return nil
}

// forceRMSError is the rms of |a_tree − a_direct|/|a_direct| over a seeded
// sample of targets, where a_direct sums every source with the batched p-p
// kernel at the same softening and G. parts and acc are in ID order.
func forceRMSError(parts []bonsai.Particle, acc []bonsai.Vec3, eps, g float64, seed int64) float64 {
	var src grav.PPSoA
	for _, p := range parts {
		src.Append(vec.V3{X: p.Pos.X, Y: p.Pos.Y, Z: p.Pos.Z}, p.Mass)
	}
	rng := rand.New(rand.NewSource(seed))
	idx := rng.Perm(len(parts))[:min(forceSample, len(parts))]
	tpos := make([]vec.V3, len(idx))
	for k, i := range idx {
		tpos[k] = vec.V3{X: parts[i].Pos.X, Y: parts[i].Pos.Y, Z: parts[i].Pos.Z}
	}
	var tg grav.Targets
	tg.Gather(tpos)
	grav.PPBatch(tg.X, tg.Y, tg.Z, &src, eps*eps, tg.AX, tg.AY, tg.AZ, tg.Pot)
	var sum float64
	for k, i := range idx {
		ref := vec.V3{X: tg.AX[k], Y: tg.AY[k], Z: tg.AZ[k]}.Scale(g)
		got := vec.V3{X: acc[i].X, Y: acc[i].Y, Z: acc[i].Z}
		rel := got.Sub(ref).Norm() / ref.Norm()
		sum += rel * rel
	}
	return math.Sqrt(sum / float64(len(idx)))
}
