package sim

import (
	"math"
	"time"

	"bonsai/internal/grav"
)

// PhaseTimes is the per-step wall-clock breakdown of one rank, mirroring the
// rows of the paper's Table II. The paper's separate "Sorting SFC" and
// "Tree-construction" rows are fused into one SortBuild phase: the MSD
// octant sort emits the tree top as a byproduct of partitioning, so the two
// are no longer separable.
type PhaseTimes struct {
	SortBuild     time.Duration // fused SFC sort + octree construction
	Domain        time.Duration // sampling decomposition + particle exchange
	TreeProps     time.Duration // multipole computation
	GravLocal     time.Duration // tree-walk over the local tree
	GravLET       time.Duration // tree-walks over boundary trees and received LETs
	NonHiddenComm time.Duration // LET communication time not hidden behind walks
	Other         time.Duration // integration, bookkeeping, imbalance waits
	Total         time.Duration
}

// Add accumulates another breakdown (for averaging over steps).
func (p *PhaseTimes) Add(q PhaseTimes) {
	p.SortBuild += q.SortBuild
	p.Domain += q.Domain
	p.TreeProps += q.TreeProps
	p.GravLocal += q.GravLocal
	p.GravLET += q.GravLET
	p.NonHiddenComm += q.NonHiddenComm
	p.Other += q.Other
	p.Total += q.Total
}

// Accounted returns the sum of the explicitly timed phases — every row
// except Other and Total.
func (p PhaseTimes) Accounted() time.Duration {
	return p.SortBuild + p.Domain + p.TreeProps +
		p.GravLocal + p.GravLET + p.NonHiddenComm
}

// DeriveOther sets Other to Total minus the accounted phases, clamped at
// zero, so the Table II rows sum to Total. This is the single place Other is
// derived; every pipeline path calls it after stamping Total.
func (p *PhaseTimes) DeriveOther() {
	p.Other = p.Total - p.Accounted()
	if p.Other < 0 {
		p.Other = 0
	}
}

// Scale divides all phases by n (for averaging).
func (p PhaseTimes) Scale(n int) PhaseTimes {
	if n <= 0 {
		return p
	}
	d := time.Duration(n)
	return PhaseTimes{
		SortBuild: p.SortBuild / d, Domain: p.Domain / d,
		TreeProps: p.TreeProps / d,
		GravLocal: p.GravLocal / d, GravLET: p.GravLET / d,
		NonHiddenComm: p.NonHiddenComm / d, Other: p.Other / d,
		Total: p.Total / d,
	}
}

// RankStats is everything one rank reports for one step.
type RankStats struct {
	Times        PhaseTimes
	Grav         grav.Stats // interactions evaluated by this rank
	NLocal       int        // particles owned after the step
	LETsSent     int        // full LETs pushed to other ranks
	LETsRecv     int        // full LETs received
	BoundaryUsed int        // remote ranks served by their boundary tree alone
	LETBytesSent int64      // declared (WireBytes) size of the boundary trees and LETs pushed

	// Overlap-efficiency counter for the overlapped gravity schedule.
	LETsOverlapped int // LETs walked before the local walk finished

	// Event-level diagnostics, populated only when tracing is enabled
	// (Config.Obs != nil): the worst full-LET arrival time relative to this
	// rank's local-walk completion (negative = fully hidden), and how many
	// arrivals it was measured over.
	WorstArrival time.Duration
	ArrivalsSeen int

	// Block-timestep summary of a step (Config.BlockSteps; zero in the
	// stats of a single evaluation): substep force evaluations, full tree
	// rebuilds among them, and the global active and total particle counts
	// summed over them. Every rank holds the same allreduced values.
	Substeps  int
	Rebuilds  int
	ActiveSum int
	TotalSum  int
}

// WalkGflops returns this rank's effective gravity-walk rate in Gflop/s
// (interactions evaluated over local + LET walk wall-clock, §VI.A counting).
// A rank with zero walk time — an empty domain, or a clock too coarse to
// resolve a tiny walk — reports 0 rather than ±Inf/NaN, so it can never
// poison a step aggregate.
func (r RankStats) WalkGflops() float64 {
	return finiteRate(r.Grav.Gflops(r.Times.GravLocal + r.Times.GravLET))
}

// finiteRate clamps non-finite rates (0/0 or x/0 artifacts) to zero.
func finiteRate(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// StepStats aggregates a step over all ranks.
type StepStats struct {
	Step     int
	Ranks    int
	N        int // total particles
	Times    PhaseTimes
	MaxTimes PhaseTimes // slowest rank per phase (load imbalance view)
	Grav     grav.Stats

	LETsSent     int
	BoundaryUsed int
	// BytesSent sums the declared payload sizes (WireBytes) of the boundary
	// trees and full LETs this step pushed. It is not the transport meter:
	// it leaves out the domain exchange, the collectives and wire framing,
	// which mpi.World.TotalBytes counts.
	BytesSent int64

	// Overlap efficiency of the gravity phase: how many of the received
	// full LETs were walked while the local tree-walk was still running
	// (OverlapFrac = LETsOverlapped/LETsRecv).
	LETsRecv       int
	LETsOverlapped int
	OverlapFrac    float64

	PPPerParticle float64
	PCPerParticle float64

	// Application/walk performance in Gflop/s computed from the paper's
	// interaction-count conventions and measured wall-clock: Walk uses only
	// the gravity-walk time (the "GPU kernels" line of Fig. 4), App uses the
	// full step time.
	WalkGflops float64
	AppGflops  float64

	// KernelISA names the force-kernel instruction set the walks ran on
	// ("avx2+fma" when the runtime dispatch selected the SIMD kernels,
	// "scalar" otherwise) so recorded rates can be attributed to a kernel.
	KernelISA string

	// Block-timestep summary, populated only on Config.BlockSteps steps
	// (from RankStats, identical on every rank): substep force evaluations
	// the step ran, full tree rebuilds among them (the rest reused the tree
	// with refreshed multipoles), and the mean fraction of particles active
	// per evaluation (0 with MaxRungs == 0, where every particle is always
	// active and no rung population is counted).
	Substeps   int
	Rebuilds   int
	ActiveFrac float64
}

// Aggregate combines per-rank stats into a StepStats; the facade's
// multi-process runs use it to fold the stats one Node reports into the
// summary shape Simulation produces from all of them.
func Aggregate(step int, rs []RankStats) StepStats { return aggregate(step, rs) }

// aggregate combines per-rank stats into a StepStats.
func aggregate(step int, rs []RankStats) StepStats {
	out := StepStats{Step: step, Ranks: len(rs)}
	walk := 0.0 // summed per-rank walk seconds
	for i := range rs {
		walk += (rs[i].Times.GravLocal + rs[i].Times.GravLET).Seconds()
		out.N += rs[i].NLocal
		out.Times.Add(rs[i].Times)
		out.Grav.Add(rs[i].Grav)
		out.LETsSent += rs[i].LETsSent
		out.BoundaryUsed += rs[i].BoundaryUsed
		out.BytesSent += rs[i].LETBytesSent
		out.LETsRecv += rs[i].LETsRecv
		out.LETsOverlapped += rs[i].LETsOverlapped
		maxDur(&out.MaxTimes.SortBuild, rs[i].Times.SortBuild)
		maxDur(&out.MaxTimes.Domain, rs[i].Times.Domain)
		maxDur(&out.MaxTimes.TreeProps, rs[i].Times.TreeProps)
		maxDur(&out.MaxTimes.GravLocal, rs[i].Times.GravLocal)
		maxDur(&out.MaxTimes.GravLET, rs[i].Times.GravLET)
		maxDur(&out.MaxTimes.NonHiddenComm, rs[i].Times.NonHiddenComm)
		maxDur(&out.MaxTimes.Other, rs[i].Times.Other)
		maxDur(&out.MaxTimes.Total, rs[i].Times.Total)
	}
	out.Times = out.Times.Scale(len(rs))
	if out.LETsRecv > 0 {
		out.OverlapFrac = float64(out.LETsOverlapped) / float64(out.LETsRecv)
	}
	if out.N > 0 {
		out.PPPerParticle = float64(out.Grav.PP) / float64(out.N)
		out.PCPerParticle = float64(out.Grav.PC) / float64(out.N)
	}
	// Effective rates under the paper's §VI.A flop conventions: ranks walk
	// concurrently, so the aggregate walk rate is the total flop count over
	// the mean per-rank walk time (obs.MergeStepMetrics computes the same
	// quantity from per-rank records); the application rate divides by the
	// slowest rank's full step (the paper's own headline metric).
	if len(rs) > 0 {
		out.WalkGflops = finiteRate(out.Grav.Flops() / (walk / float64(len(rs))) / 1e9)
		out.Substeps, out.Rebuilds = rs[0].Substeps, rs[0].Rebuilds
		if rs[0].TotalSum > 0 {
			out.ActiveFrac = float64(rs[0].ActiveSum) / float64(rs[0].TotalSum)
		}
	}
	out.AppGflops = finiteRate(out.Grav.Gflops(out.MaxTimes.Total))
	out.KernelISA = grav.KernelISA()
	return out
}

func maxDur(dst *time.Duration, v time.Duration) {
	if v > *dst {
		*dst = v
	}
}
