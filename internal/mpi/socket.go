package mpi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the wire transport: ranks connected by TCP or Unix-domain
// sockets carrying length-prefixed frames of codec-encoded payloads. A
// process hosts any subset of a world's ranks (the launcher in cmd/bonsai
// hosts one per worker process; the conformance tests host all of them and
// still push every byte through real sockets).
//
// Topology: every rank listens on its own address. The first message from
// rank a to rank b lazily creates a link — one dialed connection owned by a
// write-pump goroutine, so sends stay eager (the sender enqueues a frame and
// returns) and per-(from,to) FIFO order is the order of one socket stream.
// Dialing retries with exponential backoff because peer processes start
// asynchronously.
//
// Wire format, little-endian. Connection preamble:
//
//	magic   uint32 "BMP1"
//	from    uint32 (sending rank)
//	to      uint32 (receiving rank)
//
// then a stream of frames:
//
//	length  uint32 (bytes after this field)
//	tag     int64
//	kind    uint16 (codec.go payload kind)
//	payload length-10 bytes
//
// The frame byte count (4+8+2+payload) is what Send reports and what the
// PairBytes matrix records: real network bytes, not declared sizes.

const sockMagic = 0x424d5031 // "BMP1"

const frameOverhead = 4 + 8 + 2

// maxFrameBytes caps a frame's length field (256 MiB, several million
// particles in one domain-exchange message). The reader allocates the frame
// body from that field, so a corrupt or forged length is rejected before the
// allocation instead of attempting up to 4 GiB; Send refuses to emit a frame
// the reader would reject.
const maxFrameBytes = 1 << 28

// SocketConfig describes a socket-transport world.
type SocketConfig struct {
	// Network is "tcp" or "unix".
	Network string
	// Addrs holds one listen address per rank (a host:port for tcp, a
	// socket path for unix). When every rank is hosted in one process, tcp
	// addresses may use port 0 and the actual bound ports are used for
	// dialing; multi-process worlds need concrete addresses every process
	// agrees on.
	Addrs []string
	// Local lists the ranks hosted by this process.
	Local []int
	// DialTimeout bounds the total retry/backoff time establishing one
	// link; 0 selects 15s. Peer processes start asynchronously, so early
	// dials are expected to fail and are retried with exponential backoff.
	DialTimeout time.Duration
}

// NewSocketWorld creates a world whose messages travel over real sockets.
// The calling process hosts cfg.Local's ranks: their mailboxes live here and
// their listeners are bound before the call returns, so peers can dial as
// soon as their own worlds exist. Callers must Close the world when done.
func NewSocketWorld(size int, cfg SocketConfig) (*World, error) {
	if cfg.Network != "tcp" && cfg.Network != "unix" {
		return nil, fmt.Errorf("mpi: unsupported socket network %q", cfg.Network)
	}
	if len(cfg.Addrs) != size {
		return nil, fmt.Errorf("mpi: %d addrs for %d ranks", len(cfg.Addrs), size)
	}
	if len(cfg.Local) == 0 {
		return nil, fmt.Errorf("mpi: socket world with no local ranks")
	}
	w := newWorldShell(size)
	st := &sockTransport{
		w:           w,
		network:     cfg.Network,
		addrs:       append([]string(nil), cfg.Addrs...),
		links:       make(map[linkKey]*link),
		dialTimeout: cfg.DialTimeout,
	}
	if st.dialTimeout <= 0 {
		st.dialTimeout = 15 * time.Second
	}
	w.tr = st
	for _, r := range cfg.Local {
		if r < 0 || r >= size {
			st.Close()
			return nil, fmt.Errorf("mpi: local rank %d out of range [0,%d)", r, size)
		}
		if w.mail[r] != nil {
			st.Close()
			return nil, fmt.Errorf("mpi: local rank %d listed twice", r)
		}
		if cfg.Network == "unix" {
			os.Remove(st.addrs[r]) // a stale socket file from a killed run
		}
		ln, err := net.Listen(cfg.Network, st.addrs[r])
		if err != nil {
			st.Close()
			return nil, fmt.Errorf("mpi: rank %d listen: %w", r, err)
		}
		w.mail[r] = newMailbox()
		st.addrs[r] = ln.Addr().String() // resolves tcp port-0 addresses
		st.listeners = append(st.listeners, ln)
	}
	for _, ln := range st.listeners {
		st.readers.Add(1)
		go st.acceptLoop(ln)
	}
	return w, nil
}

type linkKey struct{ from, to int }

// link is the outgoing frame queue of one (from, to) pair, drained by a
// single pump goroutine writing to one dialed connection.
type link struct {
	mu     sync.Mutex
	cond   *sync.Cond
	q      [][]byte
	closed bool
}

func (lk *link) enqueue(frame []byte) {
	lk.mu.Lock()
	if lk.closed {
		lk.mu.Unlock()
		return // shutting down; undeliverable by design
	}
	lk.q = append(lk.q, frame)
	lk.mu.Unlock()
	lk.cond.Signal()
}

func (lk *link) shutdown() {
	lk.mu.Lock()
	lk.closed = true
	lk.mu.Unlock()
	lk.cond.Broadcast()
}

type sockTransport struct {
	w           *World
	network     string
	addrs       []string
	listeners   []net.Listener
	dialTimeout time.Duration

	mu    sync.Mutex
	links map[linkKey]*link
	conns []net.Conn // accepted connections, closed on shutdown

	closed  atomic.Bool
	pumps   sync.WaitGroup
	readers sync.WaitGroup
}

func (st *sockTransport) Wire() bool { return true }

func (st *sockTransport) Send(from, to, tag int, data any) int {
	kind, payload, err := encodePayload(data)
	if err != nil {
		panic(err)
	}
	if 8+2+len(payload) > maxFrameBytes {
		panic(fmt.Sprintf("mpi: %d-byte payload from rank %d to %d exceeds the %d-byte frame cap",
			len(payload), from, to, maxFrameBytes))
	}
	frame := make([]byte, 0, frameOverhead+len(payload))
	frame = appendU32(frame, uint32(8+2+len(payload)))
	frame = appendU64(frame, uint64(int64(tag)))
	frame = binary.LittleEndian.AppendUint16(frame, kind)
	frame = append(frame, payload...)
	if from == to {
		// Self-sends skip the socket but keep wire semantics: the payload
		// round-trips through the codec, so the delivered value is a deep
		// copy and the meters see the framed size.
		v, err := decodePayload(kind, payload)
		if err != nil {
			panic(err)
		}
		st.w.deliver(to, from, tag, v)
		return len(frame)
	}
	st.link(from, to).enqueue(frame)
	return len(frame)
}

// link returns the (from, to) link, creating it and starting its write pump
// on first use.
func (st *sockTransport) link(from, to int) *link {
	key := linkKey{from, to}
	st.mu.Lock()
	lk := st.links[key]
	if lk == nil {
		lk = &link{}
		lk.cond = sync.NewCond(&lk.mu)
		st.links[key] = lk
		st.pumps.Add(1)
		go st.pump(from, to, lk)
	}
	st.mu.Unlock()
	return lk
}

// pump owns one link's connection: dial (with backoff), preamble, then write
// frames in queue order until the link is shut down and drained.
func (st *sockTransport) pump(from, to int, lk *link) {
	defer st.pumps.Done()
	conn := st.dial(to)
	if conn == nil {
		return // transport closed while dialing
	}
	defer conn.Close()
	pre := appendU32(nil, sockMagic)
	pre = appendU32(pre, uint32(from))
	pre = appendU32(pre, uint32(to))
	if _, err := conn.Write(pre); err != nil {
		st.writeFailed(to, err)
		return
	}
	for {
		lk.mu.Lock()
		for len(lk.q) == 0 && !lk.closed {
			lk.cond.Wait()
		}
		batch := lk.q
		lk.q = nil
		done := lk.closed && len(batch) == 0
		lk.mu.Unlock()
		if done {
			return
		}
		for _, fr := range batch {
			if _, err := conn.Write(fr); err != nil {
				st.writeFailed(to, err)
				return
			}
		}
	}
}

// writeFailed handles a connection write error: silent during shutdown,
// fatal while the world is live (a vanished peer leaves the SPMD step
// unfinishable; crashing lets a supervisor restart the job from the last
// checkpoint).
func (st *sockTransport) writeFailed(to int, err error) {
	if st.closed.Load() {
		return
	}
	panic(fmt.Sprintf("mpi: write to rank %d failed: %v", to, err))
}

func (st *sockTransport) dial(to int) net.Conn {
	deadline := time.Now().Add(st.dialTimeout)
	backoff := time.Millisecond
	for {
		if st.closed.Load() {
			return nil
		}
		conn, err := net.Dial(st.network, st.addrs[to])
		if err == nil {
			if tc, ok := conn.(*net.TCPConn); ok {
				tc.SetNoDelay(true)
			}
			return conn
		}
		if time.Now().After(deadline) {
			panic(fmt.Sprintf("mpi: dialing rank %d at %s %s: %v (after %v of retries)",
				to, st.network, st.addrs[to], err, st.dialTimeout))
		}
		time.Sleep(backoff)
		if backoff *= 2; backoff > 200*time.Millisecond {
			backoff = 200 * time.Millisecond
		}
	}
}

func (st *sockTransport) acceptLoop(ln net.Listener) {
	defer st.readers.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.SetNoDelay(true)
		}
		st.mu.Lock()
		if st.closed.Load() {
			st.mu.Unlock()
			conn.Close()
			return
		}
		st.conns = append(st.conns, conn)
		st.mu.Unlock()
		st.readers.Add(1)
		go st.serveConn(conn)
	}
}

// serveConn decodes one inbound connection's frames into the destination
// mailbox. I/O errors end the stream silently (clean shutdown and killed
// peers look the same from here); protocol corruption panics.
func (st *sockTransport) serveConn(conn net.Conn) {
	defer st.readers.Done()
	var pre [12]byte
	if _, err := io.ReadFull(conn, pre[:]); err != nil {
		return
	}
	if binary.LittleEndian.Uint32(pre[0:]) != sockMagic {
		panic(fmt.Sprintf("mpi: bad connection magic %#x", binary.LittleEndian.Uint32(pre[0:])))
	}
	from := int(int32(binary.LittleEndian.Uint32(pre[4:])))
	to := int(int32(binary.LittleEndian.Uint32(pre[8:])))
	if from < 0 || from >= st.w.size || !st.w.Local(to) {
		panic(fmt.Sprintf("mpi: connection preamble names ranks %d -> %d, not served here", from, to))
	}
	for {
		body, err := readFrame(conn)
		if errors.Is(err, errFrameLength) {
			panic(fmt.Sprintf("mpi: frame from rank %d: %v", from, err))
		}
		if err != nil {
			return // EOF on frame boundary (peer closed) or a killed peer
		}
		tag := int64(binary.LittleEndian.Uint64(body[0:]))
		kind := binary.LittleEndian.Uint16(body[8:])
		data, err := decodePayload(kind, body[10:])
		if err != nil {
			panic(fmt.Sprintf("mpi: decoding frame from rank %d: %v", from, err))
		}
		st.w.deliver(to, from, int(tag), data)
	}
}

// errFrameLength marks a frame whose length field is outside
// [frameOverhead-4, maxFrameBytes]: stream corruption, not a closed peer.
var errFrameLength = errors.New("frame length out of range")

// readFrame reads one frame and returns its body (tag, kind and payload).
// The length field is checked against maxFrameBytes before the body is
// allocated; I/O errors are returned as they come (io.EOF on a frame
// boundary when the peer closed).
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n < frameOverhead-4 || n > maxFrameBytes {
		return nil, fmt.Errorf("%w: %d bytes, want [%d, %d]", errFrameLength, n, frameOverhead-4, maxFrameBytes)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return body, nil
}

// Close flushes every link's queued frames, closes connections and
// listeners, and joins the transport's goroutines. Messages still in flight
// toward this process are dropped: by the SPMD contract every expected
// receive has completed before any rank closes its world.
func (st *sockTransport) Close() error {
	if !st.closed.CompareAndSwap(false, true) {
		return nil
	}
	st.mu.Lock()
	links := make([]*link, 0, len(st.links))
	for _, lk := range st.links {
		links = append(links, lk)
	}
	st.mu.Unlock()
	for _, lk := range links {
		lk.shutdown()
	}
	st.pumps.Wait() // pumps drain their queues, then close their conns
	for _, ln := range st.listeners {
		ln.Close()
	}
	st.mu.Lock()
	conns := st.conns
	st.conns = nil
	st.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	st.readers.Wait()
	if st.network == "unix" {
		for _, ln := range st.listeners {
			os.Remove(ln.Addr().String())
		}
	}
	return nil
}
