package model

import (
	"fmt"
	"os"
	"syscall"
	"testing"
	"unsafe"
)

// TestScoreKeysReadsNoKeyPastN hands the selected Q·K kernel keys that end
// at a page the process may not read: each head's last column ends at
// position n-1, and position n is the guard page's first word. A kernel
// that loads one key past the scores it computes — as a sixteen-lane pass
// running into the plane's padding would — faults. A sharded prefill
// relies on this: the next shard may be writing those positions
// (forwardStack).
func TestScoreKeysReadsNoKeyPastN(t *testing.T) {
	page := os.Getpagesize()
	const pages = 8
	mem, err := syscall.Mmap(-1, 0, (pages+1)*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	defer syscall.Munmap(mem)
	if err := syscall.Mprotect(mem[pages*page:], syscall.PROT_NONE); err != nil {
		t.Skipf("mprotect: %v", err)
	}
	for _, hd := range []int{1, 3, 16, 32} {
		qf := make([]float64, hd)
		for i := range qf {
			qf[i] = float64(i%5) - 1.5
		}
		for _, n := range scoreLengths() {
			ld := kPad(n) + kAlign
			size := (hd-1)*ld + n
			if size == 0 || 4*size > pages*page {
				continue
			}
			keys := unsafe.Slice((*float32)(unsafe.Pointer(&mem[pages*page-4*size])), size)
			for i := range keys {
				keys[i] = float32(i%11) * 0.125
			}
			checkScoreKeys(t, fmt.Sprintf("guarded hd=%d", hd), qf, keys, n, ld)
		}
	}
}
