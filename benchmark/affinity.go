package main

import (
	"fmt"
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// CPU placement and priority. Left to itself the scheduler pulls the loadgen onto the
// hub's CPU (every loadgen wake-up is caused by a hub send, and wake-ups
// prefer the waker's CPU), where the two fight over one core while the
// other idles: hub CPU per session-second then varies by ±20 % from run to
// run and the loadgen's ticks run late. So the hub child is pinned to the
// last CPU this process may use and the loadgen to all the others. On a
// one-CPU machine nothing is pinned.
//
// Both processes also ask for nice -10, best effort (it needs
// CAP_SYS_NICE): a pinned process cannot dodge whatever else wakes up on
// its CPU, and a 20 ms visit from a background task is enough to make the
// loadgen's ticks late. Priority changes who waits, not what the hub's
// work costs: CPU time is only charged while running.

// cpuSet is a sched_setaffinity mask (room for 1024 CPUs).
type cpuSet [16]uint64

func (s *cpuSet) set(cpu int)      { s[cpu/64] |= 1 << (cpu % 64) }
func (s *cpuSet) clear(cpu int)    { s[cpu/64] &^= 1 << (cpu % 64) }
func (s *cpuSet) has(cpu int) bool { return s[cpu/64]&(1<<(cpu%64)) != 0 }

// allowedCPUs returns the calling thread's affinity mask.
func allowedCPUs() (cpuSet, error) {
	var s cpuSet
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(s), uintptr(unsafe.Pointer(&s)))
	if e != 0 {
		return s, fmt.Errorf("sched_getaffinity: %w", e)
	}
	return s, nil
}

// lastCPU returns the highest CPU in the set, or -1 for an empty set.
func (s *cpuSet) lastCPU() int {
	for cpu := len(s)*64 - 1; cpu >= 0; cpu-- {
		if s.has(cpu) {
			return cpu
		}
	}
	return -1
}

func (s *cpuSet) count() int {
	n := 0
	for cpu := 0; cpu < len(s)*64; cpu++ {
		if s.has(cpu) {
			n++
		}
	}
	return n
}

// benchNice is the priority both roles ask for.
const benchNice = -10

// pinProcess applies mask, and best-effort benchNice, to every thread of
// this process; threads the runtime creates later inherit both from their
// creator.
func pinProcess(mask cpuSet) error {
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
		if e != 0 && e != syscall.ESRCH { // a thread may exit while we walk the list
			return fmt.Errorf("sched_setaffinity(%d): %w", tid, e)
		}
		_ = syscall.Setpriority(syscall.PRIO_PROCESS, tid, benchNice) // best effort: needs CAP_SYS_NICE
	}
	return nil
}

// placeLoadgen pins this (loadgen) process away from the CPU reserved for
// the hub child and returns that CPU, or -1 when there is only one CPU
// and nothing is pinned.
func placeLoadgen() (hubCPU int, err error) {
	allowed, err := allowedCPUs()
	if err != nil {
		return -1, err
	}
	if allowed.count() < 2 {
		return -1, nil
	}
	hubCPU = allowed.lastCPU()
	allowed.clear(hubCPU)
	return hubCPU, pinProcess(allowed)
}

// placeHub pins this (hub child) process to one CPU.
func placeHub(cpu int) error {
	var mask cpuSet
	mask.set(cpu)
	return pinProcess(mask)
}
