package mpi

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"bonsai/internal/body"
	"bonsai/internal/grav"
	"bonsai/internal/keys"
	"bonsai/internal/lettree"
	"bonsai/internal/obs"
	"bonsai/internal/vec"
)

// The transport-conformance suite: the full mpi_test.go matrix run over the
// socket transport (unix and tcp), plus the wire-specific guarantees — deep
// copies by construction, exact frame accounting, codec fidelity for the
// payload types the simulation sends.

// newSockWorld creates an all-local socket world of the given size plus a
// cleanup function (close the world, remove socket files). All ranks live in
// this process, but every inter-rank byte still crosses a real socket.
func newSockWorld(network string, size int) (*World, func()) {
	addrs := make([]string, size)
	local := make([]int, size)
	dir := ""
	switch network {
	case "tcp":
		for i := range addrs {
			addrs[i] = "127.0.0.1:0"
		}
	case "unix":
		var err error
		dir, err = os.MkdirTemp("", "mpi")
		if err != nil {
			panic(err)
		}
		for i := range addrs {
			addrs[i] = filepath.Join(dir, fmt.Sprintf("r%d.sock", i))
		}
	default:
		panic("unknown network " + network)
	}
	for i := range local {
		local[i] = i
	}
	w, err := NewSocketWorld(size, SocketConfig{Network: network, Addrs: addrs, Local: local})
	if err != nil {
		if dir != "" {
			os.RemoveAll(dir)
		}
		panic(err)
	}
	return w, func() {
		w.Close()
		if dir != "" {
			os.RemoveAll(dir)
		}
	}
}

// sockSpawn returns a spawner backed by an all-local socket world.
func sockSpawn(network string) spawner {
	return func(size int, fn func(c *Comm)) *World {
		w, cleanup := newSockWorld(network, size)
		defer cleanup()
		return runWorld(w, fn)
	}
}

func TestTransportConformance(t *testing.T) {
	// The stress body is capped at 12 ranks over sockets: an all-local wire
	// world opens size*(size-1) connections, and the point (scan-resume and
	// ordering under load) needs traffic, not file descriptors.
	for _, network := range []string{"unix", "tcp"} {
		sp := sockSpawn(network)
		t.Run(network, func(t *testing.T) {
			t.Run("SendRecvBasic", func(t *testing.T) { testSendRecvBasic(t, sp) })
			t.Run("SendRecvFIFOPerPair", func(t *testing.T) { testSendRecvFIFOPerPair(t, sp) })
			t.Run("RecvMatchesTagAndSource", func(t *testing.T) { testRecvMatchesTagAndSource(t, sp) })
			t.Run("RecvAnyAndTryRecvAny", func(t *testing.T) { testRecvAnyAndTryRecvAny(t, sp) })
			t.Run("Barrier", func(t *testing.T) { testBarrier(t, sp) })
			t.Run("Bcast", func(t *testing.T) { testBcast(t, sp) })
			t.Run("Allgather", func(t *testing.T) { testAllgather(t, sp) })
			t.Run("Allreduce", func(t *testing.T) { testAllreduce(t, sp) })
			t.Run("Alltoallv", func(t *testing.T) { testAlltoallv(t, sp) })
			t.Run("AlltoallvNoAliasing", func(t *testing.T) { testAlltoallvNoAliasing(t, sp) })
			t.Run("CollectivesInterleavedWithP2P", func(t *testing.T) { testCollectivesInterleavedWithP2P(t, sp) })
			t.Run("ByteAccounting", func(t *testing.T) { testByteAccounting(t, sp) })
			t.Run("GatherRootOnly", func(t *testing.T) { testGatherRootOnly(t, sp) })
			t.Run("ConcurrentSendRecvAnyMix", func(t *testing.T) { testConcurrentSendRecvAnyMix(t, sp) })
			t.Run("ManyRanksStress", func(t *testing.T) { testManyRanksStress(t, sp, 12) })
		})
	}
}

func TestWirePayloadsAreDeepCopies(t *testing.T) {
	// A wire transport deep-copies by construction: mutating a payload after
	// Send must never reach the receiver. This is the semantics gap the
	// in-process transport documents (payloads move by reference), so it is
	// pinned for the wire path only.
	sp := sockSpawn("unix")
	sp(2, func(c *Comm) {
		if c.Rank() == 0 {
			ks := []keys.Key{1, 2, 3}
			ps := []body.Particle{{Pos: vec.V3{X: 1}, Mass: 2, ID: 7}}
			c.Send(1, 1, ks, 24)
			c.Send(1, 2, ps, body.WireBytes)
			c.Barrier() // receiver has both payloads
			ks[0], ps[0].Mass = 999, 999
			c.Barrier()
		} else {
			ks := c.Recv(0, 1).([]keys.Key)
			ps := c.Recv(0, 2).([]body.Particle)
			c.Barrier()
			c.Barrier() // sender has mutated its buffers
			if ks[0] != 1 || ks[1] != 2 || ks[2] != 3 {
				t.Errorf("keys payload shares memory with sender: %v", ks)
			}
			if ps[0].Mass != 2 || ps[0].ID != 7 {
				t.Errorf("particle payload shares memory with sender: %+v", ps[0])
			}
		}
	})
}

// samplePayloads returns one value of every payload type the simulation
// sends, for the codec round-trip test and the decoder fuzz seeds.
func samplePayloads() []any {
	let := &lettree.LET{
		Cells: []lettree.Cell{{
			MP:       grav.Multipole{COM: vec.V3{X: 1, Y: 2, Z: 3}, M: 4.5, Quad: vec.Sym3{XX: 1, XY: 2, XZ: 3, YY: 4, YZ: 5, ZZ: 6}},
			Side:     0.5,
			Delta:    0.25,
			Children: [8]int32{-1, -1, -1, -1, -1, -1, -1, -1},
			Leaf:     true,
			Openable: true,
			PStart:   0,
			PN:       2,
		}},
		Parts: []lettree.Part{{Pos: vec.V3{X: 1}, Mass: 2}, {Pos: vec.V3{Y: 3}, Mass: 4}},
		Box:   vec.Box{Min: vec.V3{X: -1, Y: -1, Z: -1}, Max: vec.V3{X: 1, Y: 1, Z: 1}},
	}
	return []any{
		nil,
		true,
		int(-42),
		int64(1 << 40),
		3.14159,
		"boundary",
		[]byte{1, 2, 3},
		[]int{5, -6, 7},
		[]int64{1 << 50},
		[]float64{0.5, -0.25},
		keys.Key(1 << 62),
		[]keys.Key{1, 2, 3},
		[][]keys.Key{{1}, nil, {2, 3}},
		[][]byte{{9}, nil, {8, 7}},
		vec.V3{X: 1, Y: 2, Z: 3},
		vec.Box{Min: vec.V3{X: -1}, Max: vec.V3{X: 1}},
		body.Particle{Pos: vec.V3{X: 1}, Vel: vec.V3{Y: 2}, Mass: 3, Weight: 4, ID: 5, Rung: 6},
		[]body.Particle{{Mass: 1, ID: 1, Rung: 3}, {Mass: 2, ID: 2}},
		let,
		[]*lettree.LET{nil, let},
	}
}

func TestWireCodecRoundTripsSimPayloads(t *testing.T) {
	// Every payload type the simulation sends, pushed through a real socket
	// and compared structurally: the decoded value must be the concrete type
	// and content that went in.
	payloads := samplePayloads()
	sp := sockSpawn("tcp")
	sp(2, func(c *Comm) {
		if c.Rank() == 0 {
			for i, p := range payloads {
				c.Send(1, i+1, p, 8)
			}
		} else {
			for i, want := range payloads {
				got := c.Recv(0, i+1)
				// [][]keys.Key and [][]byte legitimately decode nil inner
				// slices as empty ones; normalize before comparing.
				if !payloadEqual(got, want) {
					t.Errorf("payload %d (%T): got %#v, want %#v", i, want, got, want)
				}
			}
		}
	})
}

func payloadEqual(got, want any) bool {
	switch w := want.(type) {
	case [][]keys.Key:
		g, ok := got.([][]keys.Key)
		if !ok || len(g) != len(w) {
			return false
		}
		for i := range w {
			if len(w[i]) != len(g[i]) {
				return false
			}
			for j := range w[i] {
				if w[i][j] != g[i][j] {
					return false
				}
			}
		}
		return true
	case [][]byte:
		g, ok := got.([][]byte)
		if !ok || len(g) != len(w) {
			return false
		}
		for i := range w {
			if string(w[i]) != string(g[i]) {
				return false
			}
		}
		return true
	default:
		return reflect.DeepEqual(got, want)
	}
}

func TestWireFrameBytesExact(t *testing.T) {
	// PairBytes over a wire transport must report real framed bytes: frame
	// header (4B length + 8B tag + 2B kind) plus the encoded payload, for
	// every message including codec-level self-sends.
	w, cleanup := newSockWorld("unix", 2)
	defer cleanup()
	w.EnableObs(nil)
	fb := &obs.Hist{Name: "frames", Unit: "bytes"}
	w.ObserveFrameBytes(fb)
	runWorld(w, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, []byte("abcdefgh"), 8) // frame = 14 + 8
			c.Send(1, 1, "hello", 5)            // frame = 14 + 5
			c.Send(0, 2, []keys.Key{1, 2}, 16)  // self-send, frame = 14 + 16
			c.Recv(0, 2)
		} else {
			c.Recv(0, 1)
			c.Recv(0, 1)
		}
	})
	if got := w.PairBytes(0, 1); got != 14+8+14+5 {
		t.Errorf("PairBytes(0,1) = %d, want %d", got, 14+8+14+5)
	}
	if got := w.PairBytes(0, 0); got != 14+16 {
		t.Errorf("PairBytes(0,0) = %d, want %d", got, 14+16)
	}
	// The frame histogram saw every frame.
	if got := fb.Count(); got != 3 {
		t.Errorf("frame hist count = %d, want 3", got)
	}
	// BytesSent keeps declared sizes even over the wire.
	if got := w.BytesSent(0); got != 8+5+16 {
		t.Errorf("BytesSent(0) = %d, want %d", got, 8+5+16)
	}
}

func TestWireLETFramePayloadMatchesWireBytes(t *testing.T) {
	// The LET codec reuses lettree's Marshal, so a LET frame's payload length
	// must equal LET.WireBytes() exactly — the invariant behind comparing
	// PairBytes against sender-declared sizes in the sim.
	let := &lettree.LET{
		Cells: make([]lettree.Cell, 5),
		Parts: make([]lettree.Part, 17),
		Box:   vec.Box{Min: vec.V3{X: -1}, Max: vec.V3{X: 1}},
	}
	w, cleanup := newSockWorld("unix", 2)
	defer cleanup()
	w.EnableObs(nil)
	runWorld(w, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, let, let.WireBytes())
		} else {
			got := c.Recv(0, 1).(*lettree.LET)
			if len(got.Cells) != 5 || len(got.Parts) != 17 {
				t.Errorf("LET arrived with %d cells, %d parts", len(got.Cells), len(got.Parts))
			}
		}
	})
	want := int64(frameOverhead + let.WireBytes())
	if got := w.PairBytes(0, 1); got != want {
		t.Errorf("LET frame bytes = %d, want %d (14 + WireBytes %d)", got, want, let.WireBytes())
	}
}

// Benchmarks: the same two communication patterns over every transport, so
// BENCH_<date>.json records the relative cost of in-process reference
// passing, unix-socket frames, and tcp frames.

func benchWorlds(b *testing.B, bench func(b *testing.B, w *World)) {
	b.Run("chan", func(b *testing.B) {
		bench(b, NewWorld(benchWorldSize))
	})
	for _, network := range []string{"unix", "tcp"} {
		b.Run(network, func(b *testing.B) {
			w, cleanup := newSockWorld(network, benchWorldSize)
			defer cleanup()
			bench(b, w)
		})
	}
}

const benchWorldSize = 8

func BenchmarkPingPong(b *testing.B) {
	benchWorlds(b, func(b *testing.B, w *World) {
		payload := make([]byte, 1024)
		done := make(chan struct{})
		go func() {
			c := w.Comm(1)
			for i := 0; i < b.N; i++ {
				c.Recv(0, 1)
				c.Send(0, 2, payload, len(payload))
			}
			close(done)
		}()
		c := w.Comm(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Send(1, 1, payload, len(payload))
			c.Recv(1, 2)
		}
		<-done
	})
}

func BenchmarkAllgather8(b *testing.B) {
	benchWorlds(b, func(b *testing.B, w *World) {
		payload := make([]byte, 4096)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			for r := 0; r < w.Size(); r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					Allgather(w.Comm(r), payload, len(payload))
				}(r)
			}
			wg.Wait()
		}
	})
}

// BenchmarkAllgather64 prices the gather+bcast Allgather behind the
// SerialLET boundary exchange at 64 ranks, where it funnels 2(p-1) messages
// through rank 0. In-process only — 64 socket ranks would measure
// file-descriptor pressure, not schedule shape.
func BenchmarkAllgather64(b *testing.B) {
	const size = 64
	payload := make([]byte, 4096)
	b.Run("gatherBcast", func(b *testing.B) {
		w := NewWorld(size)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			for r := 0; r < size; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					Allgather(w.Comm(r), payload, len(payload))
				}(r)
			}
			wg.Wait()
		}
	})
}
