package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"bonsai"
)

// workload is one named benchmark input: how to generate the initial
// conditions from a seed, how to configure the simulation, and the bounds the
// end-of-run correctness gate applies.
type workload struct {
	name  string
	n     int
	ranks int
	// unix hosts every rank as a NodeSimulation over unix sockets instead of
	// one in-process Simulation over channels.
	unix bool
	// model names the initial-condition generator ("milkyway" or "plummer").
	model string
	cfg   bonsai.Config
	// maxForceErr bounds force_rms_err (0: the simulation exposes no
	// accelerations, so the error is not measured); maxDrift bounds
	// energy_drift.
	maxForceErr float64
	maxDrift    float64
	// warmup is the number of untimed steps after construction.
	warmup int
}

func milkyWayConfig(n, ranks int) bonsai.Config {
	return bonsai.Config{
		Ranks:     ranks,
		Softening: bonsai.SofteningForN(n),
		DT:        bonsai.SuggestedDT(n),
		GravConst: bonsai.G,
	}
}

var workloads = []workload{
	{
		name: "mw_walk", n: 65536, ranks: 2, model: "milkyway",
		cfg:         milkyWayConfig(65536, 2),
		maxForceErr: 1e-3, maxDrift: 1e-2, warmup: 2,
	},
	{
		name: "mw_exchange", n: 16384, ranks: 16, model: "milkyway",
		cfg:         milkyWayConfig(16384, 16),
		maxForceErr: 1e-3, maxDrift: 1e-2, warmup: 2,
	},
	{
		// The BenchmarkBlockSteps_Rungs settings on a concentrated Plummer
		// sphere: deep rung hierarchy, multipoles refreshed in place.
		name: "plummer_block_unix", n: 8192, ranks: 2, unix: true, model: "plummer",
		cfg: bonsai.Config{
			Ranks: 2, WorkersPerRank: 2, Theta: 0.4, Softening: 0.01, GravConst: 1,
			DT: 4e-3, BlockSteps: true, MaxRungs: 4, EtaDT: 0.055,
		},
		maxDrift: 1e-2, warmup: 2,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// initialConditions generates the workload's particles from the seed, sorted
// by ID. The same seed always gives the same particles.
func (w workload) initialConditions(n int, seed int64) []bonsai.Particle {
	var parts []bonsai.Particle
	switch w.model {
	case "milkyway":
		parts = bonsai.NewMilkyWay(n, seed)
	case "plummer":
		parts = bonsai.NewPlummer(n, 1.0, 0.1, 1.0, seed)
	default:
		panic("stepbench: unknown model " + w.model)
	}
	sort.Slice(parts, func(i, j int) bool { return parts[i].ID < parts[j].ID })
	return parts
}

// runner drives one workload through the public simulation API. step advances every
// rank by one top-level step and returns the all-rank statistics.
type runner interface {
	step() bonsai.StepStats
	commBytes() int64
	energy() float64
	// particles returns the global state sorted by ID.
	particles() []bonsai.Particle
	// owners returns each particle's rank (ID order) and the per-rank counts,
	// or nil when the simulation does not expose ownership.
	owners() (owners, counts []int)
	// accelerations returns the latest accelerations in ID order, or nil
	// when the simulation does not expose them.
	accelerations() []bonsai.Vec3
	close() error
}

// newRunner builds the workload's simulation over parts. Unix-socket worlds
// listen on sockPrefix + "-r<rank>.sock".
func newRunner(w workload, parts []bonsai.Particle, sockPrefix string) (runner, error) {
	if w.unix {
		return newNodeRunner(w, parts, sockPrefix)
	}
	s, err := bonsai.New(w.cfg, parts)
	if err != nil {
		return nil, err
	}
	return &simRunner{s: s}, nil
}

// simRunner drives an in-process Simulation (channel transport).
type simRunner struct{ s *bonsai.Simulation }

func (r *simRunner) step() bonsai.StepStats { return r.s.Step() }
func (r *simRunner) commBytes() int64       { return r.s.CommBytes() }
func (r *simRunner) energy() float64 {
	k, p := r.s.Energy()
	return k + p
}
func (r *simRunner) particles() []bonsai.Particle { return r.s.Particles() }
func (r *simRunner) owners() ([]int, []int)       { return r.s.Owners(), r.s.RankCounts() }
func (r *simRunner) accelerations() []bonsai.Vec3 {
	acc, _ := r.s.Accelerations()
	return acc
}
func (r *simRunner) close() error { return nil }

// nodeRunner hosts every rank of a unix-socket world in this process, one
// NodeSimulation per rank, each stepped from its own goroutine.
type nodeRunner struct {
	world *bonsai.World
	nodes []*bonsai.NodeSimulation
}

func newNodeRunner(w workload, parts []bonsai.Particle, sockPrefix string) (*nodeRunner, error) {
	addrs := make([]string, w.ranks)
	local := make([]int, w.ranks)
	for r := range addrs {
		addrs[r] = fmt.Sprintf("%s-r%d.sock", sockPrefix, r)
		local[r] = r
	}
	world, err := bonsai.NewSocketWorld(w.ranks, "unix", addrs, local)
	if err != nil {
		return nil, err
	}
	nr := &nodeRunner{world: world}
	for r := 0; r < w.ranks; r++ {
		node, err := bonsai.NewNodeSimulation(w.cfg, world, r, bonsai.SliceForRank(parts, r, w.ranks))
		if err != nil {
			world.Close()
			return nil, err
		}
		nr.nodes = append(nr.nodes, node)
	}
	return nr, nil
}

// each runs fn for every rank concurrently (NodeSimulation calls
// are collective) and waits for all of them.
func (r *nodeRunner) each(fn func(rank int, n *bonsai.NodeSimulation)) {
	var wg sync.WaitGroup
	for i, n := range r.nodes {
		wg.Add(1)
		go func(i int, n *bonsai.NodeSimulation) {
			defer wg.Done()
			fn(i, n)
		}(i, n)
	}
	wg.Wait()
}

func (r *nodeRunner) step() bonsai.StepStats {
	per := make([]bonsai.StepStats, len(r.nodes))
	r.each(func(i int, n *bonsai.NodeSimulation) { per[i] = n.Step() })
	return combine(per)
}

func (r *nodeRunner) commBytes() int64 { return r.world.CommBytes() }

func (r *nodeRunner) energy() float64 {
	var e float64
	r.each(func(i int, n *bonsai.NodeSimulation) {
		k, p := n.Energy()
		if i == 0 {
			e = k + p
		}
	})
	return e
}

func (r *nodeRunner) particles() []bonsai.Particle {
	var out []bonsai.Particle
	r.each(func(i int, n *bonsai.NodeSimulation) {
		if p := n.GatherParticles(0); i == 0 {
			out = p
		}
	})
	return out
}

func (r *nodeRunner) owners() ([]int, []int)       { return nil, nil }
func (r *nodeRunner) accelerations() []bonsai.Vec3 { return nil }
func (r *nodeRunner) close() error                 { return r.world.Close() }

// combine folds the per-rank views NodeSimulation.Step returns into one
// all-rank summary, the way Simulation.Step aggregates its ranks: counts
// add, phase times average, MaxTimes take the slowest rank.
func combine(per []bonsai.StepStats) bonsai.StepStats {
	out := bonsai.StepStats{Step: per[0].Step, Ranks: len(per)}
	var active float64
	for _, s := range per {
		out.N += s.N
		out.PP += s.PP
		out.PC += s.PC
		out.Flops += s.Flops
		out.LETsSent += s.LETsSent
		out.LETsRecv += s.LETsRecv
		out.LETsOverlapped += s.LETsOverlapped
		out.Times = addPhases(out.Times, s.Times)
		out.MaxTimes = maxPhases(out.MaxTimes, s.MaxTimes)
		out.Substeps = max(out.Substeps, s.Substeps)
		out.Rebuilds = max(out.Rebuilds, s.Rebuilds)
		active += s.ActiveFrac * float64(s.N)
	}
	k := len(per)
	out.Times = scalePhases(out.Times, k)
	if out.N > 0 {
		out.PPPerParticle = float64(out.PP) / float64(out.N)
		out.PCPerParticle = float64(out.PC) / float64(out.N)
		out.ActiveFrac = active / float64(out.N)
	}
	if out.LETsRecv > 0 {
		out.OverlapFrac = float64(out.LETsOverlapped) / float64(out.LETsRecv)
	}
	if walk := (out.Times.GravLocal + out.Times.GravLET).Seconds(); walk > 0 {
		out.WalkGflops = out.Flops / walk / 1e9
	}
	if t := out.MaxTimes.Total.Seconds(); t > 0 {
		out.AppGflops = out.Flops / t / 1e9
	}
	return out
}

func phaseOp(a, b bonsai.PhaseTimes, op func(x, y time.Duration) time.Duration) bonsai.PhaseTimes {
	return bonsai.PhaseTimes{
		SortBuild:     op(a.SortBuild, b.SortBuild),
		Domain:        op(a.Domain, b.Domain),
		TreeProps:     op(a.TreeProps, b.TreeProps),
		GravLocal:     op(a.GravLocal, b.GravLocal),
		GravLET:       op(a.GravLET, b.GravLET),
		NonHiddenComm: op(a.NonHiddenComm, b.NonHiddenComm),
		Other:         op(a.Other, b.Other),
		Total:         op(a.Total, b.Total),
	}
}

func addPhases(a, b bonsai.PhaseTimes) bonsai.PhaseTimes {
	return phaseOp(a, b, func(x, y time.Duration) time.Duration { return x + y })
}

func maxPhases(a, b bonsai.PhaseTimes) bonsai.PhaseTimes {
	return phaseOp(a, b, func(x, y time.Duration) time.Duration { return max(x, y) })
}

func scalePhases(a bonsai.PhaseTimes, k int) bonsai.PhaseTimes {
	return phaseOp(a, a, func(x, _ time.Duration) time.Duration { return x / time.Duration(k) })
}
