package main

import (
	"syscall"
	"time"
	"unsafe"
)

// Linux's CPU-time clocks.
const (
	clockProcessCPUTimeID = 2
	clockThreadCPUTimeID  = 3
)

// cpuTime is the CPU time the process has used so far, all threads
// together. Time the kernel gives other processes, and time the
// hypervisor steals from the virtual CPU (the kernel accounts steal
// apart from task time), is not in it, so the benchmark's time metrics
// follow the program's work rather than the host's load.
func cpuTime() time.Duration { return clock(clockProcessCPUTimeID) }

// threadCPUTime is the CPU time the calling thread has used so far.
func threadCPUTime() time.Duration { return clock(clockThreadCPUTimeID) }

func clock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic("perfbench: clock_gettime: " + e.Error())
	}
	return time.Duration(ts.Nano())
}
