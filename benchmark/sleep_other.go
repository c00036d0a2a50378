//go:build !linux

package main

import "time"

// sleeper falls back to the runtime timer where timerfd is unavailable;
// open-loop lateness (harness.late_p99_us) then shows the coarser wake.
type sleeper struct{}

func newSleeper() (*sleeper, error)  { return &sleeper{}, nil }
func (s *sleeper) until(t time.Time) { time.Sleep(time.Until(t)) }
func (s *sleeper) close()            {}
