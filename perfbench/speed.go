package main

import (
	"crypto/sha256"
	"runtime"
	"slices"
	"sort"
	"time"
)

// The host's speed changes under the benchmark, and CPU time alone does
// not hide it: on the reference host the CPU time of every op doubled
// for tens of minutes, with no steal time reported, while nothing else
// ran in the virtual machine. The benchmark therefore runs a fixed
// reference task of its own (refWork) between ops, and reports CPU time
// scaled to what the reference task costs at full speed:
//
//	scaled = measured × refNominal / (median reference run nearby)
//
// The reference task calls no code of the program, so a change to the
// program cannot move it.
const (
	// refEvery is how many ops run between two reference runs.
	refEvery = 16
	// refWindow is how many reference runs, the nearest to an op, its
	// scale is the median of.
	refWindow = 31
	// refSetup is how many reference runs precede each set-up.
	refSetup = 31
)

// refNominal is refWork's CPU time on the reference host at full
// speed. It only sets the unit: every scaled time is in reference-host
// milliseconds. It is an estimate: refWork was timed at 1.18 to 1.27 ms
// while the host ran at about half speed (serve-hit's CPU time per
// request 1.8 to 2.2 times its full-speed value), never at full speed.
const refNominal = 650 * time.Microsecond

// refState is refWork's memory, allocated once, so that the reference
// task does not add to the garbage collector's work during the ops.
type refState struct {
	ints []int
	next []int32
	m    map[uint64]int32
	buf  []byte
	sink int
}

var ref = &refState{
	ints: make([]int, 4096),
	next: make([]int32, 1<<16),
	m:    make(map[uint64]int32, 4096),
	buf:  make([]byte, 16<<10),
}

// refWork is the reference task: a fixed mix of what the program's ops
// do, in the benchmark's own code — hashing into a map, sorting,
// chasing pointers through memory and a SHA-256 over a buffer.
func refWork() {
	r := ref
	clear(r.m)
	x := uint64(88172645463325252)
	for i := range r.ints {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		r.ints[i] = int(x >> 1)
		r.m[x%5003]++
	}
	// A linked list through every slot in a pseudo-random order (a
	// full-period linear congruential step modulo a power of two).
	mask := len(r.next) - 1
	for i := range r.next {
		r.next[i] = int32((i*1664525 + 1013904223) & mask)
	}
	sort.Ints(r.ints)
	n, p := 0, int32(0)
	for range r.next {
		p = r.next[p]
		n += int(p)
	}
	for i := range r.buf {
		r.buf[i] = byte(r.ints[i%len(r.ints)])
	}
	h := sha256.Sum256(r.buf)
	r.sink += n + len(r.m) + int(h[0])
}

// refRun times one reference run in the CPU time of its own thread:
// the process's clock would also count garbage-collector work that the
// scheduler runs while the run is preempted.
func refRun() time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0 := threadCPUTime()
	refWork()
	return threadCPUTime() - c0
}

// refScale converts CPU time measured while reference runs took d (their
// median) into reference-host time.
func refScale(d []time.Duration) float64 {
	s := slices.Clone(d)
	slices.Sort(s)
	return float64(refNominal) / float64(s[len(s)/2])
}

// setupScale runs refSetup reference runs and returns their scale.
func setupScale() float64 {
	d := make([]time.Duration, refSetup)
	for i := range d {
		d[i] = refRun()
	}
	return refScale(d)
}

// speedMeter runs the reference task before every refEvery-th op of a
// timed phase and converts the CPU time measured around each op into
// reference-host time. Ops are numbered from 0 in the order they run;
// one goroutine calls tick.
type speedMeter struct {
	at []int           // the op each reference run preceded
	d  []time.Duration // its CPU time
}

// tick runs the reference task before op i if it is due, and returns
// the CPU time it took (0 if it did not run), which the caller keeps
// out of its own measurements.
func (m *speedMeter) tick(i int) time.Duration {
	if i%refEvery != 0 {
		return 0
	}
	d := refRun()
	m.at = append(m.at, i)
	m.d = append(m.d, d)
	return d
}

// scale returns op i's factor from CPU time to reference-host time:
// refScale over the refWindow reference runs nearest to it.
func (m *speedMeter) scale(i int) float64 {
	if len(m.d) == 0 {
		return 1
	}
	p := sort.SearchInts(m.at, i+1) // first run after op i
	lo := max(0, min(p-refWindow/2, len(m.d)-refWindow))
	hi := min(len(m.d), lo+refWindow)
	return refScale(m.d[lo:hi])
}

// median scale over the timed phase, for the report.
func (m *speedMeter) medianScale() float64 {
	if len(m.d) == 0 {
		return 1
	}
	return refScale(m.d)
}
