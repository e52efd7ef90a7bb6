package mpi

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"bonsai/internal/grav"
	"bonsai/internal/lettree"
)

// allocatedBytes returns the bytes fn allocated on the heap.
func allocatedBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDecodeRejectsForgedCounts: a sequence count larger than the payload
// could hold must fail before the decoder sizes its slice from it. Each case
// forges the count of an otherwise empty payload; without the bound the
// largest would ask for tens of GiB of slice headers.
func TestDecodeRejectsForgedCounts(t *testing.T) {
	for _, tc := range []struct {
		name string
		kind uint16
	}{{"[][]key", kKeySlices}, {"[][]byte", kByteSlices}, {"[]LET", kLETs}} {
		for _, count := range []uint32{0xFFFFFFFF, 1 << 20, 2} {
			payload := binary.LittleEndian.AppendUint32(nil, count)
			payload = append(payload, 0, 0, 0, 0) // room for one length prefix
			var err error
			alloc := allocatedBytes(func() { _, err = decodePayload(tc.kind, payload) })
			if err == nil {
				t.Errorf("%s count %#x on a %d-byte payload: decoded without error", tc.name, count, len(payload))
			}
			if alloc > 1<<20 {
				t.Errorf("%s count %#x: decoder allocated %d bytes before rejecting", tc.name, count, alloc)
			}
		}
	}
}

// TestReadFrameRejectsForgedLength: a frame length field above the cap (or
// below the fixed header) is corruption, reported as errFrameLength before
// the body is allocated; a clean close between frames stays io.EOF.
func TestReadFrameRejectsForgedLength(t *testing.T) {
	for _, n := range []uint32{0xFFFFFFFF, maxFrameBytes + 1, frameOverhead - 5} {
		hdr := binary.LittleEndian.AppendUint32(nil, n)
		var err error
		alloc := allocatedBytes(func() { _, err = readFrame(bytes.NewReader(hdr)) })
		if !errors.Is(err, errFrameLength) {
			t.Errorf("length %d: err = %v, want errFrameLength", n, err)
		}
		if alloc > 1<<20 {
			t.Errorf("length %d: reader allocated %d bytes before rejecting", n, alloc)
		}
	}
	if _, err := readFrame(bytes.NewReader(nil)); err == nil || errors.Is(err, errFrameLength) {
		t.Errorf("empty stream: err = %v, want a plain I/O error", err)
	}
	frame := binary.LittleEndian.AppendUint32(nil, frameOverhead-4)
	frame = append(frame, make([]byte, frameOverhead-4)...)
	if body, err := readFrame(bytes.NewReader(frame)); err != nil || len(body) != frameOverhead-4 {
		t.Errorf("minimal frame: body %d bytes, err %v", len(body), err)
	}
}

// FuzzDecodePayload: for any kind tag and bytes — forged counts, truncated
// sequences, corrupt LETs — the wire decoder returns a value or an error and
// never panics, and a value it accepts encodes back under the same kind.
// The seeds are the encodings of every payload type the simulation sends,
// plus a LET whose root is an internal cell.
func FuzzDecodePayload(f *testing.F) {
	tree := &lettree.LET{
		Cells: []lettree.Cell{
			{MP: grav.Multipole{M: 1}, Side: 1, Children: [8]int32{1, -1, -1, -1, -1, -1, -1, -1}, Openable: true},
			{MP: grav.Multipole{M: 1}, Side: 0.5, Leaf: true, Openable: true, PN: 1},
		},
		Parts: []lettree.Part{{Mass: 1}},
	}
	for _, p := range append(samplePayloads(), tree, []*lettree.LET{tree, nil}) {
		kind, b, err := encodePayload(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(kind, b)
	}
	f.Fuzz(func(t *testing.T, kind uint16, b []byte) {
		v, err := decodePayload(kind, b)
		if err != nil {
			return
		}
		if got, _, err := encodePayload(v); err != nil || got != kind {
			t.Fatalf("kind %d decoded to a %T that encodes as kind %d (err %v)", kind, v, got, err)
		}
	})
}
