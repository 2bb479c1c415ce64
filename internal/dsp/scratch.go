package dsp

import "sync"

// Block-sized scratch shared across the process.
//
// A buffer that is live only inside one call — a correlator's forward
// spectrum, a detector's per-block scan arrays — need not be owned by the
// instance that uses it: a hub hosts one detector per session but only
// runs as many blocks at once as it has goroutines doing the work. Such
// buffers are borrowed from a process-wide free list for the call and
// returned at its end, so their count follows concurrency, not sessions.
//
// The list is a plain mutex-guarded stack per exact capacity rather than a
// sync.Pool: a pool drops whatever sat idle through two GC cycles, and a
// detector borrows only once per 1.7 s block — far less often than the hub
// collects — so a pool would hand out freshly allocated buffers nearly
// every time. Borrow
// and Return are allocation-free once the list holds a buffer of the
// requested size.

type freeList[T any] struct {
	mu   sync.Mutex
	bufs map[int][][]T // exact capacity -> idle buffers
}

func (l *freeList[T]) borrow(n int) []T {
	l.mu.Lock()
	stack := l.bufs[n]
	if k := len(stack); k > 0 {
		b := stack[k-1]
		l.bufs[n] = stack[:k-1]
		l.mu.Unlock()
		return b
	}
	l.mu.Unlock()
	return make([]T, n)
}

func (l *freeList[T]) give(b []T) {
	b = b[:cap(b)]
	l.mu.Lock()
	if l.bufs == nil {
		l.bufs = make(map[int][][]T)
	}
	l.bufs[len(b)] = append(l.bufs[len(b)], b)
	l.mu.Unlock()
}

var (
	complexFree freeList[complex128]
	floatFree   freeList[float64]
)

// BorrowComplex lends an n-element buffer from the process-wide free list.
// Its contents are unspecified. Hand it back with ReturnComplex once the
// call that needed it is done; a buffer that is never returned is simply
// collected.
func BorrowComplex(n int) []complex128 { return complexFree.borrow(n) }

// ReturnComplex gives a buffer obtained from BorrowComplex back to the free
// list. The caller must not touch it afterwards.
func ReturnComplex(b []complex128) { complexFree.give(b) }

// BorrowFloats is BorrowComplex for float64 buffers.
func BorrowFloats(n int) []float64 { return floatFree.borrow(n) }

// ReturnFloats gives a buffer obtained from BorrowFloats back to the free
// list. The caller must not touch it afterwards.
func ReturnFloats(b []float64) { floatFree.give(b) }
