package main

import (
	"encoding/binary"
	"fmt"
	"slices"
	"syscall"
	"time"
)

// The reference host's speed drifts by a fifth or more over minutes
// (README.md, "Host and noise"), which moves every wall time the
// benchmark reads, whatever the code does. So each untraced run also
// times a fixed kernel that uses none of the repository's code, before
// and after it measures, and in bursts during a closed loop's sampled
// phase, and reports its times scaled to the speed the reference host
// had when the kernel's median rep took calRef. The open loop is not
// interrupted: a burst would hold back the arrivals due during it.
//
// The kernel mixes the kinds of work the engine does: sorting and
// hashing small slices and maps, allocating and walking short-lived
// linked nodes, and chasing pointers through a table larger than a
// core's L2 cache.

// calRef is the kernel's median rep on the reference host, the speed
// the scaled times are reported at: the middle of the 1.5-2.1 ms its
// runs read.
const calRef = 1800 * time.Microsecond

// A closed loop runs calBurst of reps every calEvery of its sampled
// phase, about 4% of it.
const (
	calEvery = 250 * time.Millisecond
	calBurst = 10 * time.Millisecond
)

// calSlots is the chase table's size in 4-byte slots: 16 MiB, past the
// reference host's 2 MiB L2 and within its shared L3. It lives outside
// the Go heap, so it changes neither the collector's pacing nor
// live_heap_mb.
const calSlots = 1 << 22

// calibrator holds the kernel's chase table: one cycle through every
// slot, each holding the index of the next.
type calibrator struct {
	table []byte
	at    uint32
	sink  int
}

func newCalibrator() (*calibrator, error) {
	table, err := syscall.Mmap(-1, 0, 4*calSlots, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping the calibration table: %w", err)
	}
	c := &calibrator{table: table}
	// A linear congruential step modulo a power of two with an odd
	// increment and a multiplier of 1 mod 4 visits every slot in one
	// cycle (Hull-Dobell), in an order the prefetchers do not follow;
	// filling the table this way is a sequential write.
	for i := uint32(0); i < calSlots; i++ {
		c.put(i, (i*1664525+1013904223)&(calSlots-1))
	}
	return c, nil
}

func (c *calibrator) get(i uint32) uint32 { return binary.LittleEndian.Uint32(c.table[4*i:]) }
func (c *calibrator) put(i, v uint32)     { binary.LittleEndian.PutUint32(c.table[4*i:], v) }

// close unmaps the chase table.
func (c *calibrator) close() error { return syscall.Munmap(c.table) }

type calNode struct {
	next *calNode
	v    [4]int
}

// rep runs the kernel once. Each rep does the same work; only the
// chase's starting slot moves on.
func (c *calibrator) rep() {
	xs := make([]int, 8192)
	m := make(map[int]int, 64)
	x := uint64(0x2545f4914f6cdd1d)
	for i := range xs {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		xs[i] = int(x % 1000003)
		if i < 2048 {
			m[xs[i]] = i
		}
	}
	slices.Sort(xs)
	var head *calNode
	for i := 0; i < 2000; i++ {
		head = &calNode{next: head, v: [4]int{i}}
	}
	s := len(m) + xs[len(xs)/2]
	for n := head; n != nil; n = n.next {
		s += n.v[0]
	}
	at := c.at
	for i := 0; i < 4096; i++ {
		at = c.get(at)
	}
	c.at = at
	c.sink += s
}

// run repeats the kernel for d of wall time and appends each rep's
// duration to times.
func (c *calibrator) run(d time.Duration, times []time.Duration) []time.Duration {
	for end := time.Now().Add(d); time.Now().Before(end); {
		t0 := time.Now()
		c.rep()
		times = append(times, time.Since(t0))
	}
	return times
}
