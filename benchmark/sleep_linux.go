//go:build linux

package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// sleeper waits for wall-clock deadlines to within tens of
// microseconds, busy process or idle, without spinning. Neither of Go's
// two wake-up paths does that alone:
//
//   - a runtime timer (time.Sleep) is checked by every busy P, but an
//     idle process parks in epoll with a whole-millisecond timeout, so
//     sub-millisecond waits round up to 1.1 ms — which would quantise
//     fleet's 625 µs due times and every think time;
//   - a timerfd read through the netpoller wakes an idle process on
//     time, but while both Ps are busy (a GC cycle) nobody polls the
//     netpoller until sysmon does, up to 10 ms later.
//
// until arms both and returns on whichever fires first. A raw nanosleep
// would also be precise but holds a P in a syscall for the whole wait.
type sleeper struct {
	fd    uintptr // kept beside f: File.Fd would switch the descriptor to blocking
	f     *os.File
	fired chan struct{} // capacity 1: a timerfd expiry, possibly a stale one
	done  chan struct{}
}

// itimerspec mirrors struct itimerspec: interval, then first expiry.
type itimerspec struct{ interval, value syscall.Timespec }

func newSleeper() (*sleeper, error) {
	const clockMonotonic, nonblockCloexec = 1, 0x800 | 0x80000
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, nonblockCloexec, 0)
	if errno != 0 {
		return nil, os.NewSyscallError("timerfd_create", errno)
	}
	s := &sleeper{fd: fd, f: os.NewFile(fd, "timerfd"),
		fired: make(chan struct{}, 1), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		var expirations [8]byte
		for {
			if _, err := s.f.Read(expirations[:]); err != nil {
				return // closed
			}
			select {
			case s.fired <- struct{}{}:
			default:
			}
		}
	}()
	return s, nil
}

func (s *sleeper) arm(d time.Duration) {
	its := itimerspec{value: syscall.NsecToTimespec(int64(d))}
	// A failed arm only loses the idle-process wake-up; the runtime
	// timer still fires, a millisecond late at worst.
	_, _, _ = syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, s.fd, 0,
		uintptr(unsafe.Pointer(&its)), 0, 0, 0)
}

// until blocks until t; it returns at once when t has passed. The loop
// absorbs a stale expiry left over from a wait the runtime timer won.
func (s *sleeper) until(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		s.arm(d)
		timer := time.NewTimer(d)
		select {
		case <-s.fired:
		case <-timer.C:
		}
		timer.Stop()
	}
}

func (s *sleeper) close() {
	_ = s.f.Close()
	<-s.done
}
