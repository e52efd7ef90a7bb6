package main

import (
	"fmt"
	"log"
	"net"
	"os"
	"runtime"
	"time"

	"bonsai"
)

// simFlags are the physics flags of the command line. Both run paths (the
// in-process run and every worker process of a socket run) turn them into
// the same run through build. Initial conditions are regenerated
// deterministically from (model, n, seed), or reloaded from restore.
type simFlags struct {
	model      string
	n          int
	seed       int64
	restore    string
	workers    int
	theta      float64
	eps        float64
	dt         float64
	blockSteps bool
	maxRungs   int
	etaDT      float64
	serialLET  bool
}

// runSetup is a run as build derives it from the flags: the global initial
// particle set, the clock it starts at, and the filled-in configuration.
type runSetup struct {
	global    []bonsai.Particle
	startTime float64
	startStep int
	cfg       bonsai.Config
}

// build loads or generates the global particle set and fills in the
// N-derived defaults: softening, time step, workers per rank, and the
// gravitational constant (model units for a fresh Plummer sphere, galactic
// units otherwise). Every worker derives the same values, restarts included.
func (f simFlags) build(ranks int, tracing bool) (runSetup, error) {
	var rs runSetup
	switch {
	case f.restore != "":
		var err error
		rs.startTime, rs.startStep, rs.global, err = bonsai.LoadSnapshot(f.restore)
		if err != nil {
			return rs, err
		}
	case f.model == "milkyway":
		rs.global = bonsai.NewMilkyWay(f.n, f.seed)
	case f.model == "plummer":
		rs.global = bonsai.NewPlummer(f.n, 1, 1, 1, f.seed)
	default:
		return rs, fmt.Errorf("unknown model %q", f.model)
	}
	freshPlummer := f.model == "plummer" && f.restore == ""
	eps, dt, workers, gconst := f.eps, f.dt, f.workers, bonsai.G
	if eps == 0 {
		eps = bonsai.SofteningForN(len(rs.global))
	}
	if dt == 0 {
		if freshPlummer {
			// Model units (G = M = a = 1): a fraction of the dynamical time.
			dt = 0.01
		} else {
			// The paper's softening-crossing criterion, capped by the
			// disk's orbital timescale (binding at reduced N).
			dt = bonsai.SuggestedDT(len(rs.global))
		}
	}
	if workers == 0 {
		workers = max(1, runtime.GOMAXPROCS(0)/ranks)
	}
	if freshPlummer {
		gconst = 1
	}
	rs.cfg = bonsai.Config{
		Ranks:          ranks,
		WorkersPerRank: workers,
		Theta:          f.theta,
		Softening:      eps,
		DT:             dt,
		BlockSteps:     f.blockSteps,
		MaxRungs:       f.maxRungs,
		EtaDT:          f.etaDT,
		GravConst:      gconst,
		SerialLET:      f.serialLET,
		Tracing:        tracing,
	}
	return rs, nil
}

// runWorker is one rank of a multi-process run: it joins the socket world,
// restores state (newest committed checkpoint first, then -restore, then
// fresh ICs), and steps in lockstep with the other ranks, checkpointing every
// ckpt-every steps so a killed team can resume.
func runWorker(lc launchConfig, rank int, sf simFlags) {
	log.SetPrefix(fmt.Sprintf("bonsai[rank %d]: ", rank))
	w, err := bonsai.NewSocketWorld(lc.ranks, lc.transport, lc.rankAddrs(), []int{rank})
	if err != nil {
		log.Fatal(err)
	}

	// The original global particle set is deterministic from the shared
	// flags; every worker rebuilds it — for its initial slice, and for the
	// N-derived parameter defaults, which must match across restarts.
	rs, err := sf.build(lc.ranks, lc.telemetryOn())
	if err != nil {
		log.Fatal(err)
	}
	cfg := rs.cfg

	// State precedence: a committed checkpoint of this run beats everything
	// (that is what a post-crash respawn resumes from); otherwise start from
	// the rank's slice of the global set.
	parts := bonsai.SliceForRank(rs.global, rank, lc.ranks)
	ckptStep, ckptTime := 0, 0.0
	if step, ranks, ok := bonsai.LatestCheckpoint(lc.ckptDir); ok {
		if ranks != lc.ranks {
			log.Fatalf("checkpoint in %s was written by %d ranks, this run has %d", lc.ckptDir, ranks, lc.ranks)
		}
		t, restored, err := bonsai.LoadRankCheckpoint(lc.ckptDir, step, rank)
		if err != nil {
			log.Fatal(err)
		}
		parts, ckptStep, ckptTime = restored, step, t
	}

	n, err := bonsai.NewNodeSimulation(cfg, w, rank, parts)
	if err != nil {
		log.Fatal(err)
	}
	// With telemetry on, serve this rank's recorder state for the launcher's
	// collector: spans, step metrics, histograms, pair bytes, pprof.
	var tele *bonsai.NodeTelemetry
	if lc.telemetryOn() {
		addr := lc.teleAddrs()[rank]
		if lc.transport == "unix" {
			os.Remove(addr) // a restarted worker must replace its stale socket
		}
		ln, err := net.Listen(lc.transport, addr)
		if err != nil {
			log.Fatal(err)
		}
		if tele, err = n.ServeTelemetry(ln); err != nil {
			log.Fatal(err)
		}
		n.PublishExpvar() //nolint:errcheck // tracing is on
	}
	if ckptStep > 0 {
		n.SetClock(ckptStep, ckptTime)
		if cfg.BlockSteps {
			// Checkpoints land at top-of-step barriers; restoring at barrier 0
			// keeps the checkpoint's rung hierarchy instead of re-assigning it,
			// so the resumed run continues the same substep schedule.
			if err := n.RestoreSubstep(0); err != nil {
				log.Fatal(err)
			}
		}
		if rank == 0 {
			fmt.Printf("resuming from checkpoint at step %d (t=%.4f)\n", ckptStep, ckptTime)
		}
	}
	if rank == 0 {
		fmt.Printf("N=%d ranks=%d (separate processes, %s transport) workers/rank=%d theta=%.2f eps=%.4f dt=%.3e\n",
			len(rs.global), lc.ranks, lc.transport, cfg.WorkersPerRank, cfg.Theta, cfg.Softening, cfg.DT)
	}

	for n.StepCount() < lc.steps {
		st := n.Step()
		if !lc.quiet {
			k, p := n.Energy() // collective: every rank participates
			if rank == 0 {
				fmt.Println(stepLine(rs.startStep+n.StepCount(), rs.startTime+bonsai.Gyr(n.Time()), k+p, st))
			}
		}
		if lc.ckptEvery > 0 && n.StepCount()%lc.ckptEvery == 0 && n.StepCount() < lc.steps {
			if err := n.Checkpoint(lc.ckptDir); err != nil {
				log.Fatal(err)
			}
			if rank == 0 && !lc.quiet {
				fmt.Printf("  checkpoint -> %s (step %d)\n", lc.ckptDir, n.StepCount())
			}
		}
	}

	k, p := n.Energy()
	if rank == 0 {
		fmt.Printf("done: t=%.4f Gyr, E=%.5e K=%.4e W=%.4e, comm(rank0)=%.1f MB\n",
			rs.startTime+bonsai.Gyr(n.Time()), k+p, k, p, float64(w.CommBytes())/1e6)
	}
	if tele != nil {
		// Hold the process (and its span buffers) until the collector has
		// taken its final scrape; the timeout keeps a dead collector from
		// wedging the worker forever.
		tele.MarkDone()
		if !tele.WaitShutdown(90 * time.Second) {
			log.Print("telemetry: collector never released the shutdown gate; exiting anyway")
		}
		tele.Close()
	}
	if err := w.Close(); err != nil {
		log.Fatal(err)
	}
}
