package main

import (
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The reference kernel is fixed work that calls nothing in the repository:
// hashing 24-byte keys and inserting them into an open-addressing table
// larger than a core's private cache, the kind of work a state-space search
// does, on as many threads as the workloads' workers. A run samples its
// wall time before the first pass, at the start of every pass and between
// jobs, and reports its end-to-end times at reference speed: each raw time
// multiplied by refNominal over the run's mean sample.
//
// On a shared virtual machine the same pass's time moves by 20–50% over
// minutes without any program change, because other guests on the host
// compete for the physical cores, caches and memory, and the hypervisor
// runs them on our virtual CPUs (steal). The kernel's time moves with the
// host and the program does not move it, so a program change still moves
// the scaled times by its own share. The raw times stay in each results
// file and are printed under the metrics; README.md gives the measured
// effect.

// refNominal is a fixed wall time per sample, close to the kernel's on a
// quiet 2-vCPU KVM guest (Intel Xeon, Go 1.24) with two threads. It only
// sets the unit: a scaled time is the time the run would have taken on a
// host where a sample takes refNominal.
const refNominal = 0.06

const (
	refSlots = 1 << 19 // table slots per thread (4 MiB)
	refKeys  = 1 << 18 // keys inserted per sample
)

// refEvery is the longest a pass runs jobs between two samples; a sample
// takes about a tenth of that.
const refEvery = 600 * time.Millisecond

// sampleSpeed runs the kernel and records each sample's wall time: once
// when force is set, and otherwise once per refEvery since the last sample
// (at most refMaxRounds times), so the kernel takes about a tenth of the
// run whether its jobs are short or long. Passes call it between jobs,
// outside the jobs' timed regions.
func (r *runner) sampleSpeed(force bool) {
	rounds := 1
	if !force {
		rounds = min(int(time.Since(r.lastRef)/refEvery), refMaxRounds)
	}
	for range rounds {
		t0 := time.Now()
		runKernel(r.workers)
		r.refWalls = append(r.refWalls, time.Since(t0).Seconds())
	}
	if rounds > 0 {
		r.lastRef = time.Now()
	}
}

const refMaxRounds = 8

// refTables are the kernel's tables, one per thread, mapped once outside
// the Go heap: the kernel neither allocates nor changes the process's
// resident memory after its first sample, and the garbage collector, which
// paces itself by the live heap, does not see them.
var refTables [][]uint64

// runKernel runs the kernel on threads goroutines at once, each locked to
// its own OS thread.
func runKernel(threads int) {
	for len(refTables) < threads {
		mem, err := syscall.Mmap(-1, 0, refSlots*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
		if err != nil {
			panic(fmt.Sprintf("reference kernel: mmap: %v", err))
		}
		refTables = append(refTables, unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), refSlots))
	}
	var wg sync.WaitGroup
	for g := 0; g < threads; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			refSink[g%len(refSink)] = refKernel(refTables[g], uint64(g)+1)
		}()
	}
	wg.Wait()
}

// refSink keeps the kernel's results alive so the compiler cannot drop them.
var refSink [64]uint64

func refKernel(table []uint64, seed uint64) uint64 {
	mask := uint64(len(table) - 1)
	var key [24]byte
	var sum uint64
	x := seed
	clear(table)
	for i := 0; i < refKeys; i++ {
		x += 0x9e3779b97f4a7c15 // splitmix64
		z := (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		for j := range key {
			key[j] = byte(z>>(8*(j%8))) ^ byte(j/8)
		}
		h := uint64(14695981039346656037) // FNV-1a
		for _, b := range key {
			h = (h ^ uint64(b)) * 1099511628211
		}
		h |= 1 // 0 marks an empty slot
		s := h & mask
		for table[s] != 0 && table[s] != h {
			s = (s + 1) & mask
		}
		table[s] = h
		sum += s
	}
	return sum
}
