//go:build linux && (amd64 || arm64)

// Kernel batch implementation: recvmmsg/sendmmsg through the stdlib
// syscall package (the module deliberately has no dependencies, so the
// mmsghdr layout x/sys/unix would provide is declared here for the 64-bit
// ABIs this file builds on — amd64 and arm64 share it). Batch reads and
// writes go through syscall.RawConn, so a drained socket parks the reader
// on the runtime poller exactly like a blocked ReadFrom would.

package udpio

import (
	"errors"
	"net"
	"strconv"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// sysIovec is struct iovec on 64-bit Linux.
type sysIovec struct {
	base *byte
	len  uint64
}

// sysMsghdr is struct msghdr on 64-bit Linux (8-byte pointers, size_t
// lengths, explicit padding after the 32-bit fields).
type sysMsghdr struct {
	name       *byte
	namelen    uint32
	_          [4]byte
	iov        *sysIovec
	iovlen     uint64
	control    *byte
	controllen uint64
	flags      int32
	_          [4]byte
}

// sysMmsghdr is struct mmsghdr: one msghdr plus the kernel-written
// received/sent length.
type sysMmsghdr struct {
	hdr sysMsghdr
	len uint32
	_   [4]byte
}

// mmsgVec is one direction's reusable syscall vectors, sized on first use
// and rewritten in place every batch.
type mmsgVec struct {
	hdrs []sysMmsghdr
	iovs []sysIovec
	sas  []syscall.RawSockaddrAny
}

// grow makes the vectors hold at least n messages.
func (v *mmsgVec) grow(n int) {
	if len(v.hdrs) >= n {
		return
	}
	v.hdrs = make([]sysMmsghdr, n)
	v.iovs = make([]sysIovec, n)
	v.sas = make([]syscall.RawSockaddrAny, n)
}

// mmsgConn is the Linux BatchConn over a *net.UDPConn.
type mmsgConn struct {
	c  *net.UDPConn
	rc syscall.RawConn
	// v4 records the socket's address family, fixed at bind: outgoing
	// sockaddrs must match it (an AF_INET6 socket reaches v4 peers via
	// mapped addresses, which ReadBatch surfaces as 16-byte IPs anyway).
	v4 bool

	// Each direction's vectors, the func value handed to RawConn.Read or
	// Write — built once: a literal per call would escape with all it
	// captures — and what that func exchanges with its caller, under a mutex.
	rmu   sync.Mutex
	rv    mmsgVec
	recv  func(fd uintptr) bool
	rk    int // messages asked for
	rn    int // messages received
	rerrn syscall.Errno

	wmu   sync.Mutex
	wv    mmsgVec
	send  func(fd uintptr) bool
	wk    int // messages to send; wv.hdrs[wsent:wk] are still to go
	wsent int
	wn    int // messages the last call sent
	werrn syscall.Errno
}

// newMmsgConn wraps uc if its raw descriptor is reachable; ok=false sends
// the caller to the portable fallback.
func newMmsgConn(uc *net.UDPConn) (BatchConn, bool) {
	rc, err := uc.SyscallConn()
	if err != nil {
		return nil, false
	}
	v4 := true
	if la, ok := uc.LocalAddr().(*net.UDPAddr); ok && la.IP.To4() == nil {
		v4 = false
	}
	c := &mmsgConn{c: uc, rc: rc, v4: v4}
	c.recv, c.send = c.recvmmsg, c.sendmmsg
	return c, true
}

// recvmmsg is one attempt at the batch read ReadBatch set up; false parks
// the reader on the poller until the socket is readable.
func (c *mmsgConn) recvmmsg(fd uintptr) bool {
	r1, _, errno := syscall.Syscall6(sysRecvmmsg, fd,
		uintptr(unsafe.Pointer(&c.rv.hdrs[0])), uintptr(c.rk), 0, 0, 0)
	if errno == syscall.EAGAIN {
		return false
	}
	c.rn, c.rerrn = int(r1), errno
	return true
}

// sendmmsg is one attempt at sending what is left of WriteBatch's vector.
func (c *mmsgConn) sendmmsg(fd uintptr) bool {
	r1, _, errno := syscall.Syscall6(sysSendmmsg, fd,
		uintptr(unsafe.Pointer(&c.wv.hdrs[c.wsent])), uintptr(c.wk-c.wsent), 0, 0, 0)
	if errno == syscall.EAGAIN {
		return false
	}
	c.wn, c.werrn = int(r1), errno
	return true
}

// ReadBatch implements BatchConn with one recvmmsg per wakeup: the call
// parks on the poller while the queue is empty and drains up to len(ms)
// datagrams in a single syscall once it isn't.
func (c *mmsgConn) ReadBatch(ms []Message) (int, error) {
	k := len(ms)
	if k == 0 {
		return 0, nil
	}
	if k > MaxBatch {
		k = MaxBatch
	}
	c.rmu.Lock()
	defer c.rmu.Unlock()
	c.rv.grow(k)
	for i := 0; i < k; i++ {
		c.rv.iovs[i] = sysIovec{base: &ms[i].Buf[0], len: uint64(len(ms[i].Buf))}
		c.rv.hdrs[i] = sysMmsghdr{hdr: sysMsghdr{
			name:    (*byte)(unsafe.Pointer(&c.rv.sas[i])),
			namelen: syscall.SizeofSockaddrAny,
			iov:     &c.rv.iovs[i],
			iovlen:  1,
		}}
	}
	c.rk = k
	if err := c.rc.Read(c.recv); err != nil {
		return 0, err
	}
	if c.rerrn != 0 {
		return 0, c.rerrn
	}
	n := c.rn
	for i := 0; i < n; i++ {
		ms[i].N = int(c.rv.hdrs[i].len)
		ms[i].Addr = reuseUDPAddr(&c.rv.sas[i], ms[i].Addr)
	}
	return n, nil
}

// WriteBatch implements BatchConn: every message leaves in as few
// sendmmsg calls as the kernel allows (normally one).
func (c *mmsgConn) WriteBatch(ms []Message) (int, error) {
	k := len(ms)
	if k == 0 {
		return 0, nil
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.wv.grow(k)
	for i := 0; i < k; i++ {
		nl, err := c.putSockaddr(&c.wv.sas[i], ms[i].Addr)
		if err != nil {
			return 0, err
		}
		buf := ms[i].Buf[:ms[i].N]
		iov := sysIovec{len: uint64(len(buf))}
		if len(buf) > 0 {
			iov.base = &buf[0]
		}
		c.wv.iovs[i] = iov
		c.wv.hdrs[i] = sysMmsghdr{hdr: sysMsghdr{
			name:    (*byte)(unsafe.Pointer(&c.wv.sas[i])),
			namelen: nl,
			iov:     &c.wv.iovs[i],
			iovlen:  1,
		}}
	}
	for c.wk, c.wsent = k, 0; c.wsent < k; c.wsent += c.wn {
		if err := c.rc.Write(c.send); err != nil {
			return c.wsent, err
		}
		if c.werrn != 0 {
			return c.wsent, c.werrn
		}
	}
	return k, nil
}

// WriteTo implements BatchConn for single slow-path responses.
func (c *mmsgConn) WriteTo(b []byte, addr net.Addr) (int, error) { return c.c.WriteTo(b, addr) }

// LocalAddr implements BatchConn.
func (c *mmsgConn) LocalAddr() net.Addr { return c.c.LocalAddr() }

// SetReadDeadline implements BatchConn; RawConn.Read honors it.
func (c *mmsgConn) SetReadDeadline(t time.Time) error { return c.c.SetReadDeadline(t) }

// Close implements BatchConn.
func (c *mmsgConn) Close() error { return c.c.Close() }

// Batched implements BatchConn: reads and writes are vector syscalls.
func (c *mmsgConn) Batched() bool { return true }

// errAddrFamily reports a write destination the socket's family cannot
// express.
var errAddrFamily = errors.New("udpio: destination address family does not match socket")

// reuseUDPAddr converts a kernel sockaddr to *net.UDPAddr, rewriting prev
// in place when it is already a reusable UDPAddr — the steady state of a
// serving loop's read vector, which therefore allocates no addresses.
func reuseUDPAddr(sa *syscall.RawSockaddrAny, prev net.Addr) net.Addr {
	ua, _ := prev.(*net.UDPAddr)
	if ua == nil || cap(ua.IP) < 16 {
		ua = &net.UDPAddr{IP: make(net.IP, 0, 16)}
	}
	ua.Zone = ""
	switch sa.Addr.Family {
	case syscall.AF_INET:
		sa4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(sa))
		ua.IP = append(ua.IP[:0], sa4.Addr[:]...)
		ua.Port = ntohs(sa4.Port)
	case syscall.AF_INET6:
		sa6 := (*syscall.RawSockaddrInet6)(unsafe.Pointer(sa))
		ua.IP = append(ua.IP[:0], sa6.Addr[:]...)
		ua.Port = ntohs(sa6.Port)
		if sa6.Scope_id != 0 {
			// Numeric zones round-trip through putSockaddr without an
			// interface-name lookup on the hot path.
			ua.Zone = strconv.FormatUint(uint64(sa6.Scope_id), 10)
		}
	}
	return ua
}

// putSockaddr renders addr into sa in the socket's address family and
// returns the sockaddr length.
func (c *mmsgConn) putSockaddr(sa *syscall.RawSockaddrAny, addr net.Addr) (uint32, error) {
	ua, ok := addr.(*net.UDPAddr)
	if !ok {
		return 0, errAddrFamily
	}
	if c.v4 {
		ip4 := ua.IP.To4()
		if ip4 == nil {
			return 0, errAddrFamily
		}
		sa4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(sa))
		*sa4 = syscall.RawSockaddrInet4{Family: syscall.AF_INET, Port: htons(ua.Port)}
		copy(sa4.Addr[:], ip4)
		return syscall.SizeofSockaddrInet4, nil
	}
	ip16 := ua.IP.To16()
	if ip16 == nil {
		return 0, errAddrFamily
	}
	sa6 := (*syscall.RawSockaddrInet6)(unsafe.Pointer(sa))
	*sa6 = syscall.RawSockaddrInet6{Family: syscall.AF_INET6, Port: htons(ua.Port)}
	copy(sa6.Addr[:], ip16)
	if ua.Zone != "" {
		if sc, err := strconv.ParseUint(ua.Zone, 10, 32); err == nil {
			sa6.Scope_id = uint32(sc)
		}
	}
	return syscall.SizeofSockaddrInet6, nil
}

// htons converts a host-order port to a uint16 whose in-memory bytes are
// network order — what the raw sockaddr structs carry.
func htons(port int) uint16 {
	var v uint16
	b := (*[2]byte)(unsafe.Pointer(&v))
	b[0], b[1] = byte(port>>8), byte(port)
	return v
}

// ntohs converts the raw sockaddr port field back to host order.
func ntohs(port uint16) int {
	b := (*[2]byte)(unsafe.Pointer(&port))
	return int(b[0])<<8 | int(b[1])
}
