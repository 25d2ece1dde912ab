package main

import (
	"syscall"
	"time"
)

// cpuTime returns the CPU time the process has used so far, user and
// system, across all its threads. Rounds are timed with it rather than with
// the wall clock: on a shared virtual machine the hypervisor can withhold
// the CPU (steal time), which stretched wall-clock rounds by up to 2× for
// minutes on end, and the guest kernel leaves stolen time out of a
// process's CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("getrusage: " + err.Error()) // cannot fail for RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
