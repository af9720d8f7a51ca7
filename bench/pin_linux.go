package main

import (
	"errors"
	"fmt"
	"math/bits"
	"os"
	"runtime"
	"syscall"
	"unsafe"
)

// confineToOneCPU restricts the process to the first processor it may run
// on. The host's processors change speed independently of one another (see
// hostspeed.go): while one runs at its usual speed the other may take
// twice as long for the same work, for seconds or minutes, and which of
// them runs which goroutine is up to two schedulers. On one processor the
// yardstick's bursts and the program's work meet the same conditions, and
// a request costs its whole processor time wherever the program would
// have hidden part of it on a second core.
//
// Affinity set on a thread is inherited across execve, by every thread of
// the new image, so the process sets it on this thread and re-executes
// itself; the second time round the mask has one processor and it returns.
// runtime.NumCPU and GOMAXPROCS then read 1.
func confineToOneCPU() error {
	runtime.LockOSThread()
	var mask [128]uint64 // 8192 processors
	size := unsafe.Sizeof(mask)
	n, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, size, uintptr(unsafe.Pointer(&mask[0])))
	if errno != 0 {
		return fmt.Errorf("sched_getaffinity: %w", errno)
	}
	words := mask[:n/8]
	allowed, first := 0, -1
	for i, w := range words {
		if w != 0 && first < 0 {
			first = i*64 + bits.TrailingZeros64(w)
		}
		allowed += bits.OnesCount64(w)
	}
	if allowed == 1 {
		runtime.UnlockOSThread()
		return nil
	}
	if first < 0 {
		return errors.New("sched_getaffinity: empty mask")
	}
	clear(mask[:])
	mask[first/64] = 1 << (first % 64)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, size, uintptr(unsafe.Pointer(&mask[0]))); errno != 0 {
		return fmt.Errorf("sched_setaffinity: %w", errno)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	return syscall.Exec(exe, os.Args, os.Environ())
}
