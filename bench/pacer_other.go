//go:build !(linux && (amd64 || arm64))

package main

import "time"

// pacer falls back to the runtime's timers where there is no timerfd.
type pacer struct{}

func newPacer() (*pacer, error)      { return &pacer{}, nil }
func (*pacer) sleep(d time.Duration) { time.Sleep(d) }
func (*pacer) close()                {}
