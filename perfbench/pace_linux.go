//go:build linux

package main

import (
	"runtime"
	"syscall"
	"time"
)

// prSetTimerSlack is prctl's PR_SET_TIMERSLACK.
const prSetTimerSlack = 29

// pacer paces one open-loop worker. Go's timers can wake up to a
// millisecond late on an idle process, which would swamp reads that
// take tens of microseconds; so each worker sleeps in nanosleep on its
// own OS thread with a 1 ns timer slack, which wakes within a few
// microseconds.
type pacer struct{}

func newPacer() pacer {
	runtime.LockOSThread()
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0) // best effort: a failure only coarsens pacing
	return pacer{}
}

// sleepUntil returns at t, or at once when t has passed.
func (pacer) sleepUntil(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// stop restores the thread's default timer slack and releases it.
func (pacer) stop() {
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 0, 0)
	runtime.UnlockOSThread()
}
