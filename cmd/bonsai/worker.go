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

// workerSimConfig carries the physics flags a worker needs to rebuild the
// exact simulation the launcher's command line describes. Initial conditions
// are regenerated deterministically from (model, n, seed) — or reloaded from
// -restore — so every worker derives the same global set, then keeps only its
// rank's slice.
type workerSimConfig struct {
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

// runWorker is one rank of a multi-process run: it joins the socket world,
// restores state (newest committed checkpoint first, then -restore, then
// fresh ICs), and steps in lockstep with the other ranks, checkpointing every
// ckpt-every steps so a killed team can resume.
func runWorker(lc launchConfig, rank int, wc workerSimConfig) {
	log.SetPrefix(fmt.Sprintf("bonsai[rank %d]: ", rank))
	w, err := bonsai.NewSocketWorld(lc.ranks, lc.transport, lc.rankAddrs(), []int{rank})
	if err != nil {
		log.Fatal(err)
	}

	// The original global particle set is deterministic from the shared
	// flags; every worker rebuilds it — for its initial slice, and for the
	// N-derived parameter defaults, which must match across restarts.
	var global []bonsai.Particle
	var startTime float64
	var startStep int
	switch {
	case wc.restore != "":
		startTime, startStep, global, err = bonsai.LoadSnapshot(wc.restore)
		if err != nil {
			log.Fatal(err)
		}
	case wc.model == "milkyway":
		global = bonsai.NewMilkyWay(wc.n, wc.seed)
	case wc.model == "plummer":
		global = bonsai.NewPlummer(wc.n, 1, 1, 1, wc.seed)
	default:
		log.Fatalf("unknown model %q", wc.model)
	}

	if wc.eps == 0 {
		wc.eps = bonsai.SofteningForN(len(global))
	}
	if wc.dt == 0 {
		if wc.model == "plummer" && wc.restore == "" {
			wc.dt = 0.01
		} else {
			wc.dt = bonsai.SuggestedDT(len(global))
		}
	}
	if wc.workers == 0 {
		wc.workers = max(1, runtime.GOMAXPROCS(0)/lc.ranks)
	}
	gconst := bonsai.G
	if wc.model == "plummer" && wc.restore == "" {
		gconst = 1
	}
	cfg := bonsai.Config{
		Ranks:          lc.ranks,
		WorkersPerRank: wc.workers,
		Theta:          wc.theta,
		Softening:      wc.eps,
		DT:             wc.dt,
		BlockSteps:     wc.blockSteps,
		MaxRungs:       wc.maxRungs,
		EtaDT:          wc.etaDT,
		GravConst:      gconst,
		SerialLET:      wc.serialLET,
		Tracing:        lc.telemetryOn(),
	}

	// State precedence: a committed checkpoint of this run beats everything
	// (that is what a post-crash respawn resumes from); otherwise start from
	// the rank's slice of the global set.
	parts := bonsai.SliceForRank(global, rank, lc.ranks)
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
		if wc.blockSteps {
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
			len(global), lc.ranks, lc.transport, wc.workers, wc.theta, wc.eps, wc.dt)
	}

	for n.StepCount() < lc.steps {
		st := n.Step()
		if !lc.quiet {
			k, p := n.Energy() // collective: every rank participates
			if rank == 0 {
				fmt.Println(stepLine(startStep+n.StepCount(), startTime+bonsai.Gyr(n.Time()), k+p, st))
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
			startTime+bonsai.Gyr(n.Time()), k+p, k, p, float64(w.CommBytes())/1e6)
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
