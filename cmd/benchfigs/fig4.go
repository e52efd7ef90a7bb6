package main

import (
	"fmt"
	"os"

	"bonsai"
	"bonsai/internal/perfmodel"
	"bonsai/internal/plot"
)

// measuredPoint runs the in-process tree-code and reports one scaling point.
type measuredPoint struct {
	ranks int
	stats bonsai.StepStats
}

func measureWeak(perRank, maxRanks int) []measuredPoint {
	var out []measuredPoint
	for ranks := 1; ranks <= maxRanks; ranks *= 2 {
		n := perRank * ranks
		parts := bonsai.NewMilkyWay(n, 3)
		s, err := bonsai.New(bonsai.Config{
			Ranks: ranks, Theta: 0.4, Softening: bonsai.SofteningForN(n),
			GravConst: bonsai.G,
		}, parts)
		if err != nil {
			panic(err)
		}
		s.ComputeForces() // settle the decomposition
		st := s.ComputeForces()
		out = append(out, measuredPoint{ranks, st})
	}
	return out
}

func printFig4Measured(perRank, maxRanks int) {
	section(fmt.Sprintf("FIG. 4 (measured) — weak scaling, %d particles/rank, in-process ranks", perRank))
	pts := measureWeak(perRank, maxRanks)
	base := pts[0].stats.AppGflops
	fmt.Printf("%6s %10s %10s %10s %10s %10s %10s\n",
		"ranks", "walk Gf/s", "app Gf/s", "pp/part", "pc/part", "retain %", "comm MB")
	for _, p := range pts {
		// In-process ranks time-share this host's cores, so the ideal
		// aggregate rate is flat with rank count (not linear as on a
		// cluster); "retain" is App(r)/App(1), the fraction of the
		// single-rank rate that survives the parallelization overheads
		// (LET construction, extra cell interactions, exchange).
		retain := p.stats.AppGflops / base * 100
		fmt.Printf("%6d %10.2f %10.2f %10.0f %10.0f %10.1f %10.2f\n",
			p.ranks, p.stats.WalkGflops, p.stats.AppGflops,
			p.stats.PPPerParticle, p.stats.PCPerParticle, retain,
			float64(p.stats.BytesSent)/1e6)
	}
	fmt.Println("\n(absolute Gflop/s reflect this host CPU, not a K20X, and in-process")
	fmt.Println(" ranks share cores — cluster-style parallel efficiency at paper scale")
	fmt.Println(" comes from the calibrated model below. Shapes to compare here: pp per")
	fmt.Println(" particle roughly flat, comm growing sub-linearly with total N.)")
}

func printFig4Model() {
	section("FIG. 4 (model) — weak scaling at paper scale, 13M particles/GPU")
	for _, m := range []perfmodel.Machine{perfmodel.PizDaint(), perfmodel.Titan()} {
		var maxP int
		var paperPts map[int]float64
		if m.Name == "Piz Daint" {
			maxP = 5200
			paperPts = map[int]float64{1024: 1551.9, 2048: 3129.9, 4096: 6180.7}
		} else {
			maxP = 18600
			paperPts = map[int]float64{1024: 1484.6, 2048: 2971.8, 4096: 5784.9, 18600: 24773}
		}
		fmt.Printf("\n--- %s (%s) ---\n", m.Name, m.Network)
		fmt.Printf("%7s %12s %12s %12s %7s %12s\n",
			"GPUs", "GPU Tflops", "grav Tflops", "app Tflops", "eff %", "paper app")
		for _, p := range []int{1, 4, 16, 64, 256, 1024, 2048, 4096, 8192, 18600} {
			if p > maxP {
				break
			}
			pr := perfmodel.Predict(m, p, 13e6)
			eff := perfmodel.ParallelEfficiency(m, p, 13e6) * 100
			gravT := pr.FlopsPerStep / (pr.Phases.GravLocal + pr.Phases.GravLET + pr.Phases.Comm) / 1e12
			paper := "-"
			if v, ok := paperPts[p]; ok {
				paper = fmt.Sprintf("%.1f", v)
			}
			fmt.Printf("%7d %12.1f %12.1f %12.1f %7.1f %12s\n",
				p, pr.GPUTflops, gravT, pr.AppTflops, eff, paper)
		}
	}
	fmt.Println("\npaper claims: Piz Daint efficiency ≥95% throughout; Titan ~90% to 8192, 86% at 18600.")

	// The figure itself: log-log weak-scaling curves as in the paper's
	// Fig. 4 (GPU kernels / gravity / application vs linear scaling).
	for _, m := range []perfmodel.Machine{perfmodel.PizDaint(), perfmodel.Titan()} {
		maxP := 5200
		if m.Name == "Titan" {
			maxP = 18600
		}
		ch := &plot.Chart{
			Title:  fmt.Sprintf("Fig. 4 — %s weak scaling (13M particles/GPU)", m.Name),
			XLabel: "GPU count",
			YLabel: "Tflop/s",
			LogX:   true,
			LogY:   true,
			Width:  70,
			Height: 18,
		}
		var xs, kern, grav, app, lin []float64
		one := perfmodel.Predict(m, 1, 13e6)
		for p := 1; p <= maxP; p *= 4 {
			pr := perfmodel.Predict(m, p, 13e6)
			xs = append(xs, float64(p))
			kern = append(kern, pr.GPUTflops)
			grav = append(grav, pr.FlopsPerStep/(pr.Phases.GravLocal+pr.Phases.GravLET+pr.Phases.Comm)/1e12)
			app = append(app, pr.AppTflops)
			lin = append(lin, one.AppTflops*float64(p))
		}
		pr := perfmodel.Predict(m, maxP, 13e6)
		xs = append(xs, float64(maxP))
		kern = append(kern, pr.GPUTflops)
		grav = append(grav, pr.FlopsPerStep/(pr.Phases.GravLocal+pr.Phases.GravLET+pr.Phases.Comm)/1e12)
		app = append(app, pr.AppTflops)
		lin = append(lin, one.AppTflops*float64(maxP))
		// Linear reference first so the curves overwrite it — exactly the
		// paper's caption: "the black dashed lines ... are mostly hidden
		// behind the blue lines".
		ch.Add(plot.Series{Name: "linear", Marker: '.', X: xs, Y: lin})
		ch.Add(plot.Series{Name: "GPU kernels", Marker: 'K', X: xs, Y: kern})
		ch.Add(plot.Series{Name: "gravity", Marker: 'G', X: xs, Y: grav})
		ch.Add(plot.Series{Name: "application", Marker: 'A', X: xs, Y: app})
		fmt.Println()
		if err := ch.Render(os.Stdout); err != nil {
			fmt.Println("(chart error:", err, ")")
		}
	}
}

func printTable2Measured(perRank, maxRanks int) {
	section(fmt.Sprintf("TABLE II (measured) — phase breakdown, %d particles/rank, in-process", perRank))
	pts := measureWeak(perRank, maxRanks)
	fmt.Printf("%-28s", "Operation [ms]")
	for _, p := range pts {
		fmt.Printf("%10d", p.ranks)
	}
	fmt.Println()
	row := func(name string, get func(bonsai.StepStats) float64) {
		fmt.Printf("%-28s", name)
		for _, p := range pts {
			fmt.Printf("%10.1f", get(p.stats))
		}
		fmt.Println()
	}
	row("Sort + tree-construction", func(s bonsai.StepStats) float64 { return s.Times.SortBuild.Seconds() * 1e3 })
	row("Domain Update", func(s bonsai.StepStats) float64 { return s.Times.Domain.Seconds() * 1e3 })
	row("Tree-properties", func(s bonsai.StepStats) float64 { return s.Times.TreeProps.Seconds() * 1e3 })
	row("Compute gravity Local-tree", func(s bonsai.StepStats) float64 { return s.Times.GravLocal.Seconds() * 1e3 })
	row("Compute gravity LETs", func(s bonsai.StepStats) float64 { return s.Times.GravLET.Seconds() * 1e3 })
	row("Non-hidden LET comm", func(s bonsai.StepStats) float64 { return s.Times.NonHiddenComm.Seconds() * 1e3 })
	row("Total (slowest rank)", func(s bonsai.StepStats) float64 { return s.MaxTimes.Total.Seconds() * 1e3 })
	row("Particle-Particle /part", func(s bonsai.StepStats) float64 { return s.PPPerParticle })
	row("Particle-Cell /part", func(s bonsai.StepStats) float64 { return s.PCPerParticle })
	row("LET overlap [%]", func(s bonsai.StepStats) float64 { return s.OverlapFrac * 100 })
	row("Walk Gflop/s (23/65)", func(s bonsai.StepStats) float64 { return s.WalkGflops })
	row("App Gflop/s (23/65)", func(s bonsai.StepStats) float64 { return s.AppGflops })
}

// paper values for the modeled Table II print-out.
type t2col struct {
	label   string
	machine string
	p       int
	n       float64
	paper   []float64 // sort, domain, build, props, local, let, comm, other, total, pp, pc, gpuTf, appTf
}

var table2Cols = []t2col{
	{"1 GPU", "Titan", 1, 13e6, []float64{0.1, 0, 0.11, 0.03, 2.45, 0, 0, 0.1, 2.79, 1745, 4529, 1.77, 1.55}},
	{"Titan 1024", "Titan", 1024, 13e6, []float64{0.1, 0.2, 0.1, 0.03, 1.45, 1.78, 0.09, 0.27, 4.02, 1715, 6287, 1844.6, 1484.6}},
	{"Titan 4096", "Titan", 4096, 13e6, []float64{0.1, 0.2, 0.1, 0.036, 1.45, 2.0, 0.14, 0.40, 4.41, 1718, 6765, 7396.8, 5784.9}},
	{"Titan 18600", "Titan", 18600, 13e6, []float64{0.13, 0.3, 0.1, 0.03, 1.45, 2.09, 0.22, 0.45, 4.77, 1716, 6920, 33490, 24773}},
	{"Titan 8192 (6.5M)", "Titan", 8192, 6.5e6, []float64{0.06, 0.15, 0.05, 0.016, 0.68, 1.13, 0.25, 0.31, 2.65, 1716, 7096, 14714, 10051}},
	{"PizDaint 4096", "PizDaint", 4096, 13e6, []float64{0.1, 0.1, 0.1, 0.03, 1.45, 2.02, 0.07, 0.28, 4.15, 1718, 6810, 7396.9, 6180.7}},
	{"PizDaint 4096 (6.5M)", "PizDaint", 4096, 6.5e6, []float64{0.05, 0.07, 0.05, 0.016, 0.68, 1.01, 0.07, 0.15, 2.1, 1714, 6616, 7383.5, 5947.9}},
}

func printTable2Model() {
	section("TABLE II (model) — paper scale, model vs paper values")
	for _, c := range table2Cols {
		m := perfmodel.Titan()
		if c.machine == "PizDaint" {
			m = perfmodel.PizDaint()
		}
		pr := perfmodel.Predict(m, c.p, c.n)
		fmt.Printf("\n--- %s (%.1fM particles/GPU) ---\n", c.label, c.n/1e6)
		fmt.Printf("%-28s %10s %10s\n", "row", "model", "paper")
		rows := []struct {
			name  string
			model float64
			paper float64
		}{
			{"Sorting SFC [s]", pr.Phases.Sort, c.paper[0]},
			{"Domain Update [s]", pr.Phases.Domain, c.paper[1]},
			{"Tree-construction [s]", pr.Phases.TreeBuild, c.paper[2]},
			{"Tree-properties [s]", pr.Phases.TreeProps, c.paper[3]},
			{"Gravity Local-tree [s]", pr.Phases.GravLocal, c.paper[4]},
			{"Gravity LETs [s]", pr.Phases.GravLET, c.paper[5]},
			{"Non-hidden LET comm [s]", pr.Phases.Comm, c.paper[6]},
			{"Unbalance + Other [s]", pr.Phases.Other, c.paper[7]},
			{"Total [s]", pr.Phases.Total(), c.paper[8]},
			{"p-p per particle", pr.PP, c.paper[9]},
			{"p-c per particle", pr.PC, c.paper[10]},
			{"GPU Tflops", pr.GPUTflops, c.paper[11]},
			{"Application Tflops", pr.AppTflops, c.paper[12]},
		}
		for _, r := range rows {
			fmt.Printf("%-28s %10.3f %10.3f\n", r.name, r.model, r.paper)
		}
	}
}
