//go:build !linux

package livenet

import "time"

// tickSleeper exists only on Linux (wheel_sleep_linux.go). Elsewhere
// newTickSleeper returns nil and the wheel sleeps on its time.Timer for
// every wait: correct, and a millisecond coarse when the process is idle.
type tickSleeper struct{}

func newTickSleeper() *tickSleeper { return nil }

func (*tickSleeper) arm(time.Duration) {}
func (*tickSleeper) wait()             {}
func (*tickSleeper) interrupt()        {}
func (*tickSleeper) close()            {}
