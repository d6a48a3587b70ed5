//go:build linux

package livenet

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// tickSleeper is the wheel's sub-millisecond sleep: a non-blocking timerfd
// registered with the runtime's netpoller through os.NewFile. A goroutine
// reading it parks like one waiting on a socket and is readied by the fd
// becoming readable — an event, which the poller reports when it happens —
// where a time.Timer in an otherwise idle process is a timeout argument to
// epoll_wait, which rounds up to whole milliseconds (golang/go#44343). The P
// is released as soon as the goroutine parks, unlike a nanosleep syscall,
// which holds it until sysmon notices.
//
// Only the wheel goroutine calls arm, wait and close; interrupt is safe from
// any goroutine at any time, including after close.
type tickSleeper struct {
	f   *os.File
	fd  uintptr
	buf [8]byte // the expiration count read(2) returns; never looked at
}

// itimerspec is struct itimerspec: a zero interval makes the timer one-shot.
type itimerspec struct {
	interval, value syscall.Timespec
}

// newTickSleeper returns nil when the kernel refuses a timerfd (fd limit,
// seccomp); the wheel then sleeps on its time.Timer, as it does off Linux.
func newTickSleeper() *tickSleeper {
	const clockMonotonic = 1
	// TFD_NONBLOCK and TFD_CLOEXEC are defined as the O_ flags on every arch.
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic,
		syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil
	}
	// NewFile finds the descriptor non-blocking and hands it to the poller.
	return &tickSleeper{f: os.NewFile(fd, "timerfd"), fd: fd}
}

// arm starts a sleep of d: wait will return when it has passed. Two clocks
// run. The timerfd is the one that is on time when the process is idle. The
// read deadline is a runtime timer, late by up to a millisecond then — but
// when every P is busy the runtime checks its timers at each scheduling
// point and polls descriptors only when a P runs dry, so there the deadline
// is the one on time.
func (s *tickSleeper) arm(d time.Duration) {
	if d <= 0 {
		d = 1 // a zero it_value would disarm the timer
	}
	s.f.SetReadDeadline(time.Now().Add(d))
	// Re-arming also clears an expiry nobody read (an interrupted sleep's).
	spec := itimerspec{value: syscall.NsecToTimespec(int64(d))}
	syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, s.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
}

// wait blocks until the sleep arm started is over or interrupt cuts it
// short; which of them ended it does not matter to the caller.
func (s *tickSleeper) wait() {
	s.f.Read(s.buf[:])
}

// interrupt makes the wait in progress — or, if none is, the next one unless
// arm comes between — return at once. A read deadline in the past unblocks
// the parked reader without a system call and, unlike touching the raw
// descriptor, is safe against a concurrent close.
func (s *tickSleeper) interrupt() {
	if s != nil {
		s.f.SetReadDeadline(time.Unix(1, 0))
	}
}

func (s *tickSleeper) close() {
	if s != nil {
		s.f.Close()
	}
}
