package main

import (
	"runtime"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// The speed kernel.
//
// The benchmark runs on a few cores of a shared host, and the host's
// speed moves: on the reference box the same op takes 0.13 s in one
// minute and 0.18 s in the next, its CPU time moving with its wall time,
// for minutes at a stretch. Two runs of the same code then differ by more
// than any bound worth gating on. What repeats is an op's time relative
// to a fixed piece of work timed at the same moment.
//
// The kernel is that piece of work. It belongs to the benchmark and calls
// nothing of the program under test, so a change to the program cannot
// move it. It does what the ranks do: map updates, a sort, allocation,
// dependent reads over a table larger than the core's own cache, a block
// copy, and small writes and reads on a socket pair. One run takes about
// 2 ms. It runs once before every op, and every samplePeriod while the op
// runs, on an OS thread of its own, and is timed in that thread's CPU
// time, which does not count the moments the thread waits for a core.
//
// Every duration an op reports is multiplied by refKernelSeconds over the
// mean kernel time sampled around that op: seconds at reference speed.
// Over 200 s stretches on the reference box this took the spread between
// the quartiles of run-sized medians from 8-20 % of the median to 2-6 %
// on every workload (README.md has the table).

// refKernelSeconds is the kernel's time on the reference box at its usual
// speed. It only fixes the unit: with it a scaled time reads as seconds
// on that box. Changing it rescales every duration of every run alike.
const refKernelSeconds = 0.002

// samplePeriod is how often the kernel runs while an op does: 2 ms in
// every 50 costs the op 4 % of one core, the same on every run.
const samplePeriod = 50 * time.Millisecond

var (
	kernelTable = makeKernelTable(2 << 20) // 8 MB of uint32: beyond the core's 2 MB L2
	kernelCopy  = make([]uint32, 512<<10)  // 2 MB
	kernelPair  = makeSocketPair()
	kernelSink  float64
)

// makeKernelTable fills a table with indices into itself, so that a walk
// through it is a chain of dependent reads at scattered addresses.
func makeKernelTable(n int) []uint32 {
	t := make([]uint32, n)
	state := uint64(1)
	for i := range t {
		state = state*6364136223846793005 + 1442695040888963407
		t[i] = uint32(state>>40) % uint32(n)
	}
	return t
}

func makeSocketPair() [2]int {
	p, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM, 0)
	if err != nil {
		fatalf("speed kernel: socketpair: %v", err)
	}
	return p
}

// kernel is the fixed work. Its inputs are constants: it does the same
// thing every time.
func kernel() {
	m := make(map[int]float64, 1024)
	xs := make([]float64, 4096)
	state := uint64(0x9e3779b97f4a7c15)
	for rep := 0; rep < 2; rep++ {
		for i := range xs {
			state = state*6364136223846793005 + 1442695040888963407
			m[int(state>>52)] += float64(i)
			xs[i] = float64(state >> 11)
		}
		sort.Float64s(xs)
		buf := make([]float64, len(xs))
		copy(buf, xs)
		kernelSink += buf[rep] + m[rep]
	}
	j := uint32(12345)
	for i := 0; i < 10000; i++ {
		j = kernelTable[j]
	}
	copy(kernelCopy, kernelTable)
	kernelSink += float64(j) + float64(kernelCopy[77])
	var msg [256]byte
	for i := 0; i < 250; i++ {
		syscall.Write(kernelPair[0], msg[:])
		syscall.Read(kernelPair[1], msg[:])
	}
}

// threadCPUSeconds is the CPU time the calling OS thread has used.
func threadCPUSeconds() float64 {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return float64(ts.Sec) + float64(ts.Nsec)/1e9
}

// kernelSeconds runs the kernel once and returns the CPU time it took.
// The caller has locked itself to its OS thread.
func kernelSeconds() float64 {
	t0 := threadCPUSeconds()
	kernel()
	return threadCPUSeconds() - t0
}

// sampleSpeed times the kernel once now and then every samplePeriod until
// the returned function is called; that function returns the timings.
func sampleSpeed() (stop func() []float64) {
	quit, done := make(chan struct{}), make(chan struct{})
	var out []float64
	first := make(chan struct{})
	go func() {
		defer close(done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		out = append(out, kernelSeconds())
		close(first)
		tick := time.NewTicker(samplePeriod)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				out = append(out, kernelSeconds())
			}
		}
	}()
	<-first
	return func() []float64 {
		close(quit)
		<-done
		return out
	}
}
