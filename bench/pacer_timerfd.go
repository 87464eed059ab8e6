//go:build linux && (amd64 || arm64)

package main

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// pacer sleeps until an open-phase arrival is due. The runtime's own
// timers round an idle thread's sleep up to a millisecond (its epoll wait
// takes milliseconds), which would make every arrival late and bunch them
// into bursts. A timerfd registered with the netpoller wakes the goroutine
// the way a socket does, within microseconds of the deadline, without
// spinning a core the proxy needs.
type pacer struct {
	fd  uintptr // kept beside f: File.Fd would put the descriptor in blocking mode
	f   *os.File
	buf [8]byte
}

func newPacer() (*pacer, error) {
	const clockMonotonic, nonblockCloexec = 1, syscall.O_NONBLOCK | syscall.O_CLOEXEC
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, nonblockCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("bench: timerfd_create: %w", errno)
	}
	// NewFile sees the descriptor is non-blocking and hands it to the poller.
	return &pacer{fd: fd, f: os.NewFile(fd, "timerfd")}, nil
}

// sleep blocks the goroutine for d.
func (p *pacer) sleep(d time.Duration) {
	// struct itimerspec on the 64-bit ABIs: interval {sec, nsec}, then
	// value {sec, nsec}.
	its := [4]int64{2: int64(d / time.Second), 3: int64(d % time.Second)}
	_, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, p.fd, 0, uintptr(unsafe.Pointer(&its)), 0, 0, 0)
	if errno == 0 {
		if _, err := p.f.Read(p.buf[:]); err == nil {
			return
		}
	}
	time.Sleep(d) // the timer could not be armed or read; stay correct, if coarse
}

func (p *pacer) close() { p.f.Close() }
