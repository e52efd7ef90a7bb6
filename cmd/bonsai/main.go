// Command bonsai runs a distributed gravitational tree-code simulation: the
// reproduction of the paper's production runs at laptop scale.
//
// Examples:
//
//	# 100k-particle Milky Way on 4 simulated ranks, 100 steps
//	bonsai -model milkyway -n 100000 -ranks 4 -steps 100
//
//	# resume from a snapshot and store snapshots every 50 steps
//	bonsai -restore mw.snap -steps 500 -snap-every 50 -snap-prefix mw
//
//	# real multi-process run: 4 worker processes over unix sockets, with
//	# periodic distributed checkpoints — a SIGKILLed worker is restarted
//	# from the last checkpoint automatically
//	bonsai -transport unix -ranks 4 -steps 100 -ckpt-every 16
//
// Per-step output mirrors the paper's Table II phases.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"runtime"
	"time"

	"bonsai"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bonsai: ")

	var (
		model      = flag.String("model", "milkyway", "initial model: milkyway or plummer (ignored with -restore)")
		n          = flag.Int("n", 50_000, "number of particles")
		seed       = flag.Int64("seed", 42, "random seed")
		restore    = flag.String("restore", "", "restart from this snapshot instead of generating ICs")
		ranks      = flag.Int("ranks", 4, "simulated MPI ranks (one modeled GPU each)")
		workers    = flag.Int("workers", 0, "compute workers per rank (0 = auto)")
		theta      = flag.Float64("theta", 0.4, "opening angle (paper: 0.4)")
		eps        = flag.Float64("eps", 0, "softening in kpc (0 = paper's N^-1/3 scaling)")
		dt         = flag.Float64("dt", 0, "time step (0 = softening-based minimum, paper §VI.C)")
		blockSteps = flag.Bool("block-steps", false, "hierarchical block timesteps: per-particle dt = dt/2^k from the acceleration criterion")
		maxRungs   = flag.Int("max-rungs", 4, "block timesteps: maximum hierarchy depth (dt/2^max-rungs is the finest step)")
		etaDT      = flag.Float64("eta-dt", 0.1, "block timesteps: accuracy parameter of dt_i = eta*sqrt(eps/|a_i|)")
		serialLET  = flag.Bool("serial-let", false, "disable communication/compute overlap in the gravity phase (deterministic baseline)")
		steps      = flag.Int("steps", 64, "number of leapfrog steps")
		snapEvery  = flag.Int("snap-every", 0, "snapshot interval in steps (0 = none)")
		snapPrefix = flag.String("snap-prefix", "snap", "snapshot filename prefix")
		quiet      = flag.Bool("q", false, "suppress per-step output")
		tracePath  = flag.String("trace", "", "write a Chrome trace-event JSON timeline here (open in Perfetto); with a socket transport this is the clock-aligned merge of all worker processes")
		metricsOut = flag.String("metrics", "", "write per-step JSONL metrics here (analyze with tracestats -metrics)")
		expvarAddr = flag.String("expvar", "", "serve live metrics on this address (e.g. :6060): /debug/vars, and with a socket transport also Prometheus /metrics and pprof")

		promSnapshot  = flag.String("prom-snapshot", "", "socket transports: write a final Prometheus text-format snapshot here")
		stragglerMult = flag.Float64("straggler-mult", 2.0, "socket transports: alert when a rank's step time exceeds this multiple of the cross-rank median")
		telePortBase  = flag.Int("tele-port-base", 29600, "tcp transport: rank r serves telemetry on 127.0.0.1:(tele-port-base+r)")

		transport   = flag.String("transport", "chan", "rank transport: chan (in-process goroutines), unix or tcp (one OS process per rank)")
		ckptEvery   = flag.Int("ckpt-every", 16, "steps between distributed checkpoints (socket transports; 0 = none)")
		ckptDir     = flag.String("ckpt-dir", "", "checkpoint directory (default: a fresh directory under the system temp dir)")
		portBase    = flag.Int("port-base", 28600, "tcp transport: rank r listens on 127.0.0.1:(port-base+r)")
		maxRestarts = flag.Int("max-restarts", 3, "restarts of the worker team after a crash before giving up")

		// Internal flags the launcher passes to the worker processes it forks.
		workerRank = flag.Int("worker-rank", -1, "internal: run as the worker for this rank")
		sockDir    = flag.String("sock-dir", "", "internal: directory holding the unix socket files")
	)
	flag.Parse()

	switch *transport {
	case "chan":
		// Fall through to the in-process simulation below.
	case "unix", "tcp":
		lc := launchConfig{
			transport:   *transport,
			ranks:       *ranks,
			steps:       *steps,
			ckptEvery:   *ckptEvery,
			ckptDir:     *ckptDir,
			portBase:    *portBase,
			maxRestarts: *maxRestarts,
			sockDir:     *sockDir,
			quiet:       *quiet,

			tracePath:     *tracePath,
			metricsOut:    *metricsOut,
			expvarAddr:    *expvarAddr,
			promSnapshot:  *promSnapshot,
			stragglerMult: *stragglerMult,
			telePortBase:  *telePortBase,
		}
		if *workerRank >= 0 {
			runWorker(lc, *workerRank, workerSimConfig{
				model: *model, n: *n, seed: *seed, restore: *restore,
				workers: *workers, theta: *theta, eps: *eps, dt: *dt,
				blockSteps: *blockSteps, maxRungs: *maxRungs, etaDT: *etaDT,
				serialLET: *serialLET,
			})
		} else {
			runLauncher(lc)
		}
		return
	default:
		log.Fatalf("unknown transport %q (want chan, unix or tcp)", *transport)
	}
	if *promSnapshot != "" {
		log.Fatal("-prom-snapshot requires -transport unix or tcp (the launcher's collector writes it)")
	}

	var parts []bonsai.Particle
	var startTime float64
	var startStep int
	switch {
	case *restore != "":
		var err error
		startTime, startStep, parts, err = bonsai.LoadSnapshot(*restore)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("restored %d particles at t=%.4f (step %d)\n", len(parts), startTime, startStep)
	case *model == "milkyway":
		parts = bonsai.NewMilkyWay(*n, *seed)
	case *model == "plummer":
		parts = bonsai.NewPlummer(*n, 1, 1, 1, *seed)
	default:
		log.Fatalf("unknown model %q", *model)
	}

	if *eps == 0 {
		*eps = bonsai.SofteningForN(len(parts))
	}
	if *dt == 0 {
		if *model == "plummer" && *restore == "" {
			// Model units (G = M = a = 1): a fraction of the dynamical time.
			*dt = 0.01
		} else {
			// The paper's softening-crossing criterion, capped by the
			// disk's orbital timescale (binding at reduced N).
			*dt = bonsai.SuggestedDT(len(parts))
		}
	}
	if *workers == 0 {
		*workers = max(1, runtime.GOMAXPROCS(0) / *ranks)
	}

	gconst := bonsai.G // galactic units for milkyway and snapshot runs
	if *model == "plummer" && *restore == "" {
		gconst = 1
	}
	tracing := *tracePath != "" || *metricsOut != "" || *expvarAddr != ""
	s, err := bonsai.New(bonsai.Config{
		Ranks:          *ranks,
		WorkersPerRank: *workers,
		Theta:          *theta,
		Softening:      *eps,
		DT:             *dt,
		BlockSteps:     *blockSteps,
		MaxRungs:       *maxRungs,
		EtaDT:          *etaDT,
		GravConst:      gconst,
		SerialLET:      *serialLET,
		Tracing:        tracing,
	}, parts)
	if err != nil {
		log.Fatal(err)
	}
	if *blockSteps && *restore != "" {
		// Snapshots are taken at top-of-step barriers; restoring at barrier 0
		// keeps the snapshot's rung hierarchy instead of re-assigning it.
		if err := s.RestoreSubstep(0); err != nil {
			log.Fatal(err)
		}
	}
	if *expvarAddr != "" {
		if err := s.PublishExpvar(); err != nil {
			log.Fatal(err)
		}
		go func() {
			if err := http.ListenAndServe(*expvarAddr, nil); err != nil {
				log.Printf("expvar server: %v", err)
			}
		}()
		fmt.Printf("live metrics: http://%s/debug/vars\n", *expvarAddr)
	}

	fmt.Printf("N=%d ranks=%d workers/rank=%d theta=%.2f eps=%.4f kpc dt=%.3e (%.2f Myr)\n",
		len(parts), *ranks, *workers, *theta, *eps, *dt, bonsai.Gyr(*dt)*1e3)

	var exchLETs, exchBoundary int
	var exchDeclared int64
	for i := 0; i < *steps; i++ {
		st := s.Step()
		exchLETs += st.LETsSent
		exchBoundary += st.BoundaryUsed
		exchDeclared += st.BytesSent
		if !*quiet {
			k, p := s.Energy()
			fmt.Println(stepLine(startStep+s.StepCount(), startTime+bonsai.Gyr(s.Time()), k+p, st))
		}
		if *snapEvery > 0 && (i+1)%*snapEvery == 0 {
			path := fmt.Sprintf("%s_%05d.snap", *snapPrefix, startStep+s.StepCount())
			if err := bonsai.SaveSnapshot(path, startTime+s.Time(), startStep+s.StepCount(), s.Particles()); err != nil {
				log.Fatal(err)
			}
			if !*quiet {
				fmt.Printf("  snapshot -> %s\n", path)
			}
		}
	}

	if *tracePath != "" {
		if err := writeFileWith(*tracePath, s.WriteChromeTrace); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trace -> %s (open in https://ui.perfetto.dev)\n", *tracePath)
	}
	if *metricsOut != "" {
		if err := writeFileWith(*metricsOut, s.WriteMetricsJSONL); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("metrics -> %s (summarize with tracestats -metrics)\n", *metricsOut)
	}

	// One machine-readable exchange summary for the run (make scale-smoke
	// asserts on these key=value tokens): full LETs pushed, rank pairs
	// served by a boundary tree alone, the declared boundary+LET payload
	// bytes, and the bytes the message layer counted for every send.
	fmt.Printf("exchange: lets=%d boundary-used=%d declared-bytes=%d metered-bytes=%d\n",
		exchLETs, exchBoundary, exchDeclared, s.CommBytes())

	k, p := s.Energy()
	fmt.Printf("done: t=%.4f Gyr, E=%.5e K=%.4e W=%.4e, comm=%.1f MB\n",
		startTime+bonsai.Gyr(s.Time()), k+p, k, p, float64(s.CommBytes())/1e6)
}

// stepLine formats the per-step progress line of both the in-process run
// and rank 0 of a multi-process run: absolute step number, time (gyr in
// Gyr), total energy e, the slowest rank's step time with the mean phase
// breakdown, interactions per particle, the application rate, and the
// block-timestep summary when the step ran substeps. make block-smoke
// parses the E= token.
func stepLine(step int, gyr, e float64, st bonsai.StepStats) string {
	block := ""
	if st.Substeps > 0 {
		block = fmt.Sprintf("  sub %d/%d reb, active %3.0f%%", st.Substeps, st.Rebuilds, st.ActiveFrac*100)
	}
	ms := func(d time.Duration) float64 { return d.Seconds() * 1e3 }
	return fmt.Sprintf("step %4d  t=%7.2f Myr  E=%12.5e  step=%6.0f ms  [sort+build %3.0f dom %3.0f props %3.0f grav %4.0f+%4.0f comm %3.0f]  pp/pc %.0f/%.0f  %5.2f Gflop/s%s",
		step, gyr*1e3, e, ms(st.MaxTimes.Total),
		ms(st.Times.SortBuild), ms(st.Times.Domain), ms(st.Times.TreeProps),
		ms(st.Times.GravLocal), ms(st.Times.GravLET), ms(st.Times.NonHiddenComm),
		st.PPPerParticle, st.PCPerParticle, st.AppGflops, block)
}

// writeFileWith creates path and streams an exporter into it.
func writeFileWith(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
