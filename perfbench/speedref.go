package main

import (
	"crypto/sha1"
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// The test machine is a shared VM whose speed changes by tens of percent
// between runs, and no median within one run removes that. So the
// benchmark times a fixed reference kernel beside every slice of the
// timed window and scales the slice's host time by how slow the kernel
// ran. The kernel is the benchmark's own code and calls nothing of the
// program under test, so a change to the program moves the scaled time
// exactly as it moves the raw time.

// refNominal is the kernel's duration at the reference speed the scaled
// host times are expressed in; it is about the kernel's median on the
// 2-vCPU test machine, so scaled and raw times read alike there.
const refNominal = 2 * time.Millisecond

// refTableWords is the size of the kernel's random-access table: beyond
// the per-core L2, as the simulator's working sets are.
const refTableWords = 4 << 20 // 16 MiB of uint32

// speedRef is the reference kernel and its state. Its table is mapped
// outside the Go heap, so it neither adds to the heap the garbage
// collector paces itself by nor is scanned.
type speedRef struct {
	table []uint32
	buf   [1500]byte
	set   map[uint32]uint32
	x     uint64
	sink  uint64
}

func newSpeedRef() (*speedRef, error) {
	mem, err := syscall.Mmap(-1, 0, refTableWords*4, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return nil, fmt.Errorf("reference kernel table: %w", err)
	}
	r := &speedRef{
		table: unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), refTableWords),
		set:   make(map[uint32]uint32, 4096),
		x:     88172645463325252,
	}
	for i := range r.table {
		r.table[i] = uint32(i)
	}
	for range 5 {
		r.run()
	}
	return r, nil
}

// close unmaps the table.
func (r *speedRef) close() error {
	b := unsafe.Slice((*byte)(unsafe.Pointer(&r.table[0])), len(r.table)*4)
	r.table = nil
	return syscall.Munmap(b)
}

// next is a xorshift64 step.
func (r *speedRef) next() uint64 {
	r.x ^= r.x << 13
	r.x ^= r.x >> 7
	r.x ^= r.x << 17
	return r.x
}

// run executes the kernel once and returns how long it took: hashing,
// as the crypto path does; random read-modify-writes over the table, as
// flow and ring state sees; and map updates, for branchy code.
func (r *speedRef) run() time.Duration {
	t0 := time.Now()
	for i := range 300 {
		h := sha1.Sum(r.buf[:])
		r.buf[i&1023] = h[0]
	}
	mask := uint64(len(r.table) - 1)
	for range 45000 {
		i := r.next() & mask
		r.sink += uint64(r.table[i])
		r.table[i]++
	}
	clear(r.set)
	for range 20000 {
		r.set[uint32(r.next())&4095]++
	}
	r.sink += uint64(len(r.set))
	return time.Since(t0)
}

// sample runs the kernel n times and returns the median duration.
func (r *speedRef) sample(n int) time.Duration {
	ds := make([]float64, n)
	for i := range ds {
		ds[i] = float64(r.run())
	}
	return time.Duration(median(ds))
}

// scale converts a host time measured while the kernel took ref into
// the reference speed.
func scale(v float64, ref time.Duration) float64 {
	return v * float64(refNominal) / float64(ref)
}
