package mpnet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"sortlast/internal/mp"
)

// appendFrame appends one [tag u32][len u32][payload] frame; declared
// overrides the length field when non-negative.
func appendFrame(buf []byte, tag uint32, payload []byte, declared int64) []byte {
	n := uint32(len(payload))
	if declared >= 0 {
		n = uint32(declared)
	}
	buf = binary.LittleEndian.AppendUint32(buf, tag)
	buf = binary.LittleEndian.AppendUint32(buf, n)
	return append(buf, payload...)
}

// readStepBytes mirrors mp's first read step: what a header alone may
// cost before a payload byte has arrived.
const readStepBytes = 1 << 20

// A peer's 8-byte header must not make the rank allocate what it
// declares: 200 MiB announced, connection closed — the read loop fails
// the source promptly, having allocated one read step at most.
func TestHeaderCannotForceAllocation(t *testing.T) {
	ours, theirs := net.Pipe()
	defer ours.Close()
	tr := &tcpTransport{rank: 0, size: 2, conns: make([]*peerConn, 2), box: mp.NewMailbox()}
	tr.conns[1] = newPeerConn(ours)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	done := make(chan struct{})
	go func() {
		defer close(done)
		tr.readLoop(1, tr.conns[1])
	}()
	if _, err := theirs.Write(appendFrame(nil, 5, nil, 200<<20)); err != nil {
		t.Fatal(err)
	}
	theirs.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("read loop still running after the peer closed mid-frame")
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 2<<20 {
		t.Errorf("an 8-byte header declaring 200 MiB allocated %d bytes", grew)
	}
	start := time.Now()
	if _, err := tr.Recv(1, 5, 10*time.Second); err == nil {
		t.Error("a truncated frame was delivered")
	}
	if time.Since(start) > time.Second {
		t.Error("receive from the failed source waited instead of failing promptly")
	}
}

// queueCap mirrors mp's cap on the (source, tag) queues one peer may
// open.
const queueCap = 64

// A peer must not be able to grow the rank's heap by inventing tags:
// 10^5 empty frames under distinct tags open queueCap queues, then the
// read loop refuses the stream with the typed error and fails the
// source.
func TestDistinctTagsCannotOpenUnboundedQueues(t *testing.T) {
	var stream []byte
	for tag := uint32(0); tag < 100_000; tag++ {
		stream = appendFrame(stream, tag, nil, -1)
	}
	var limit *mp.QueueLimitError
	box, r := mp.NewMailbox(), bytes.NewReader(stream)
	var err error
	for err == nil {
		err = readFrame(r, new([8]byte), box, 1)
	}
	if !errors.As(err, &limit) || limit.Src != 1 || limit.Tag != queueCap {
		t.Fatalf("frame %d of the stream: %v, want a QueueLimitError for source 1, tag %d", queueCap, err, queueCap)
	}

	ours, theirs := net.Pipe()
	defer ours.Close()
	tr := &tcpTransport{rank: 0, size: 2, conns: make([]*peerConn, 2), box: mp.NewMailbox()}
	tr.conns[1] = newPeerConn(ours)
	go func() {
		theirs.Write(stream) // fails once the read loop is gone and ours closes
		theirs.Close()
	}()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	done := make(chan struct{})
	go func() {
		defer close(done)
		tr.readLoop(1, tr.conns[1])
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("read loop still accepting frames under new tags")
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 256<<10 {
		t.Errorf("%d bytes of empty frames allocated %d bytes", len(stream), grew)
	}
	if _, err := tr.Recv(1, queueCap-1, 10*time.Second); err != nil {
		t.Errorf("a frame delivered before the cap is gone: %v", err)
	}
	start := time.Now()
	if _, err := tr.Recv(1, queueCap, 10*time.Second); err == nil {
		t.Error("a frame past the cap was delivered")
	}
	if time.Since(start) > time.Second {
		t.Error("receive from the failed source waited instead of failing promptly")
	}
}

// loopbackFrames returns the bytes rank 1 put on its socket to rank 0
// in a real two-rank exchange: seeds for the frame and handshake fuzzers.
func loopbackFrames(t testing.TB) (handshake, frames []byte) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return
		}
		defer conn.Close()
		writeHandshake(conn, 1)
		tr := &tcpTransport{rank: 1, size: 2, conns: []*peerConn{newPeerConn(conn), nil}}
		tr.Send(0, 3, []byte("swap payload"))
		tr.Send(0, 1<<21, nil)
		tr.Send(0, 4, bytes.Repeat([]byte{0xAB}, 5000))
	}()
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	all, err := io.ReadAll(conn)
	wg.Wait()
	if err != nil || len(all) < 8 {
		t.Fatalf("loopback capture: %d bytes, %v", len(all), err)
	}
	return all[:8], all[8:]
}

// referenceFrames parses data the obvious way: the frames readFrame must
// deliver before it stops.
func referenceFrames(data []byte) (tags []int, payloads [][]byte) {
	seen := map[uint32]bool{}
	for len(data) >= 8 {
		tag := binary.LittleEndian.Uint32(data)
		n := binary.LittleEndian.Uint32(data[4:])
		if n > maxFrame || uint64(len(data)-8) < uint64(n) {
			break
		}
		if seen[tag] = true; len(seen) > queueCap {
			break
		}
		tags = append(tags, int(tag))
		payloads = append(payloads, data[8:8+n])
		data = data[8+n:]
	}
	return tags, payloads
}

// FuzzReadFrame feeds arbitrary bytes to the socket frame parser:
// truncated headers, lengths past maxFrame, short payloads, frames back
// to back, more distinct tags than a source may open. It never panics,
// delivers exactly the well-formed prefix in order, and allocates in
// proportion to the bytes supplied plus one read step, whatever the
// length fields claim.
func FuzzReadFrame(f *testing.F) {
	_, frames := loopbackFrames(f)
	f.Add(frames)
	f.Add(frames[:len(frames)-1])
	f.Add(frames[:5])
	f.Add(appendFrame(nil, 1, nil, maxFrame+1))
	f.Add(appendFrame(nil, 1, []byte("short"), 200<<20))
	f.Add(appendFrame(appendFrame(nil, 0, nil, -1), 0xFFFFFFFF, []byte{1}, -1))
	f.Add([]byte{})
	var distinct []byte // one tag more than a source may open, then a repeat
	for tag := uint32(0); tag <= queueCap; tag++ {
		distinct = appendFrame(distinct, tag, []byte{byte(tag)}, -1)
	}
	f.Add(appendFrame(distinct, 0, nil, -1))
	f.Fuzz(func(t *testing.T, data []byte) {
		box := mp.NewMailbox()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r := bytes.NewReader(data)
		delivered := 0
		for readFrame(r, new([8]byte), box, 1) == nil {
			delivered++
		}
		runtime.ReadMemStats(&after)
		// Per delivered frame the mailbox books a queue entry: a constant
		// per 8 supplied bytes at worst, never a function of a length field.
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(data)+readStepBytes+64<<10); grew > limit {
			t.Fatalf("%d input bytes allocated %d (limit %d)", len(data), grew, limit)
		}
		tags, payloads := referenceFrames(data)
		if delivered != len(tags) {
			t.Fatalf("delivered %d frames, the stream holds %d well-formed ones", delivered, len(tags))
		}
		box.Close()
		for i, tag := range tags {
			got, err := box.Get(1, tag, 0)
			if err != nil {
				t.Fatalf("frame %d (tag %d) not delivered: %v", i, tag, err)
			}
			if !bytes.Equal(got, payloads[i]) {
				t.Fatalf("frame %d (tag %d) delivered %d bytes, sent %d", i, tag, len(got), len(payloads[i]))
			}
		}
	})
}

// FuzzHandshake feeds arbitrary bytes to the accept-side handshake
// reader as a sequence of dialing peers: bad magic, ranks out of range,
// a rank dialing twice. Whatever arrives, an accepted peer is one this
// rank expects — higher than its own, inside the world, not yet
// connected.
func FuzzHandshake(f *testing.F) {
	good, _ := loopbackFrames(f)
	f.Add(good, uint8(0), uint8(2))
	f.Add(append(append([]byte(nil), good...), good...), uint8(0), uint8(4)) // duplicate
	f.Add(good, uint8(1), uint8(2))                                          // own rank
	f.Add(good[:7], uint8(0), uint8(2))
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 0}, uint8(0), uint8(2))                                   // bad magic
	f.Add(append(append([]byte(nil), good[:4]...), 0xFF, 0xFF, 0xFF, 0xFF), uint8(0), uint8(8)) // rank 2^32-1
	f.Fuzz(func(t *testing.T, data []byte, rank, size uint8) {
		conns := make([]*peerConn, size)
		r := bytes.NewReader(data)
		for r.Len() > 0 {
			peer, err := readHandshake(r, int(rank), conns)
			if err != nil {
				continue
			}
			if peer <= int(rank) || peer >= int(size) || conns[peer] != nil {
				t.Fatalf("rank %d of %d accepted a handshake from rank %d (connected: %v)",
					rank, size, peer, conns[peer] != nil)
			}
			conns[peer] = new(peerConn)
		}
	})
}
