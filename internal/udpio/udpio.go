// Package udpio is the kernel-assisted batched UDP I/O layer beneath the
// serving fast path: where net.PacketConn costs one syscall per datagram,
// a BatchConn moves up to MaxBatch datagrams per syscall via recvmmsg and
// sendmmsg, and ListenShards opens one SO_REUSEPORT socket per CPU so
// concurrent readers never contend on a single kernel receive queue.
//
// The package has two implementations behind one interface:
//
//   - On Linux (64-bit), Wrap of a *net.UDPConn returns a conn whose
//     ReadBatch/WriteBatch are real recvmmsg/sendmmsg vector syscalls,
//     integrated with the runtime poller through syscall.RawConn so a
//     blocked batch read parks the goroutine instead of spinning.
//   - Everywhere else — other platforms, netsim conns, tests — Wrap
//     returns a per-packet fallback that loops ReadFrom/WriteTo under the
//     same interface, so serving code written against BatchConn runs
//     unchanged (and is proven byte-identical by the equivalence test in
//     internal/dnsserver).
//
// The caller owns every buffer: Message.Buf is filled in place on reads
// and transmitted in place on writes, so a serving loop with pooled
// buffers stays allocation-free across batches.
package udpio

import (
	"net"
	"time"
)

// MaxBatch caps how many datagrams one ReadBatch or WriteBatch call may
// carry. 64 messages × the linux UDP default rmem fits comfortably, and
// beyond this the per-syscall amortization curve is flat.
const MaxBatch = 64

// Message is one datagram travelling through a batch call. On reads the
// implementation fills Buf in place, sets N to the datagram length and
// Addr to the source; on writes it transmits Buf[:N] to Addr.
//
// Batch implementations may reuse the Addr value (a *net.UDPAddr rewritten
// in place) across ReadBatch calls on the same Message slot — a caller
// handing an address to a goroutine that outlives the next ReadBatch must
// copy it first.
type Message struct {
	// Buf is the datagram payload storage, owned by the caller.
	Buf []byte
	// N is the payload length within Buf.
	N int
	// Addr is the datagram's source (reads) or destination (writes).
	Addr net.Addr
}

// BatchConn is a datagram endpoint with vectored I/O. One ReadBatch call
// blocks until at least one datagram is available and returns as many as
// the kernel had queued (up to len(ms)); one WriteBatch call transmits
// every message it is given. Reads and writes may run concurrently with
// each other and WriteTo may be called from many goroutines, but ReadBatch
// and WriteBatch themselves are each single-caller (the serving loop gives
// every shard one reader and flushes its own batches).
type BatchConn interface {
	// ReadBatch fills ms with received datagrams and returns how many.
	ReadBatch(ms []Message) (int, error)
	// WriteBatch transmits every message and returns how many were sent;
	// a short count is always accompanied by the error that stopped it.
	WriteBatch(ms []Message) (int, error)
	// WriteTo sends one datagram outside any batch — the slow-path escape
	// hatch for responses produced asynchronously.
	WriteTo(b []byte, addr net.Addr) (int, error)
	// LocalAddr returns the bound address.
	LocalAddr() net.Addr
	// SetReadDeadline bounds blocked ReadBatch calls.
	SetReadDeadline(t time.Time) error
	// Close releases the endpoint; blocked calls return net.ErrClosed.
	Close() error
	// Batched reports whether reads and writes are true kernel vector
	// syscalls (false for the per-packet fallback).
	Batched() bool
}

// Wrap adapts any net.PacketConn to BatchConn: a *net.UDPConn on a
// platform with recvmmsg/sendmmsg support gets the kernel batch
// implementation, everything else the per-packet fallback.
func Wrap(pc net.PacketConn) BatchConn {
	if uc, ok := pc.(*net.UDPConn); ok {
		if bc, ok := newMmsgConn(uc); ok {
			return bc
		}
	}
	return &fallbackConn{pc: pc}
}

// fallbackConn is the portable BatchConn: one datagram per syscall under
// the batch interface. ReadBatch returns after a single ReadFrom so a
// lightly loaded serve loop keeps per-packet latency; WriteBatch loops.
type fallbackConn struct {
	pc net.PacketConn
}

// ReadBatch implements BatchConn by reading exactly one datagram.
func (f *fallbackConn) ReadBatch(ms []Message) (int, error) {
	if len(ms) == 0 {
		return 0, nil
	}
	n, addr, err := f.pc.ReadFrom(ms[0].Buf)
	if err != nil {
		return 0, err
	}
	ms[0].N, ms[0].Addr = n, addr
	return 1, nil
}

// WriteBatch implements BatchConn by looping WriteTo.
func (f *fallbackConn) WriteBatch(ms []Message) (int, error) {
	for i := range ms {
		if _, err := f.pc.WriteTo(ms[i].Buf[:ms[i].N], ms[i].Addr); err != nil {
			return i, err
		}
	}
	return len(ms), nil
}

// WriteTo implements BatchConn.
func (f *fallbackConn) WriteTo(b []byte, addr net.Addr) (int, error) {
	return f.pc.WriteTo(b, addr)
}

// LocalAddr implements BatchConn.
func (f *fallbackConn) LocalAddr() net.Addr { return f.pc.LocalAddr() }

// SetReadDeadline implements BatchConn.
func (f *fallbackConn) SetReadDeadline(t time.Time) error { return f.pc.SetReadDeadline(t) }

// Close implements BatchConn.
func (f *fallbackConn) Close() error { return f.pc.Close() }

// Batched implements BatchConn: the fallback is per-packet.
func (f *fallbackConn) Batched() bool { return false }
