//go:build !linux

package main

import "time"

// pacer paces one open-loop worker with Go's timers; see the Linux
// version for why it uses nanosleep there.
type pacer struct{}

func newPacer() pacer { return pacer{} }

func (pacer) sleepUntil(t time.Time) { time.Sleep(time.Until(t)) }

func (pacer) stop() {}
