package sim

// maxFree bounds every FreeList. A steady-state working set (a station's
// servers plus a modest queue, the ops in flight on one device) stays well
// under it, while a burst that briefly had thousands of records in flight is
// given back to the GC instead of being pinned for the owner's lifetime.
const maxFree = 256

// FreeList recycles the per-op records of one simulation component, so a
// steady-state submit-serve-complete cycle does not allocate. A record's
// callbacks are bound once, when it is built, so recycling the record
// recycles them too. The owner must Put a record only once no callback
// bound to it can still fire. The zero value is an empty list.
type FreeList[T any] struct {
	items []*T
}

// Get pops a recycled record, or returns nil when the list is empty.
func (l *FreeList[T]) Get() *T {
	n := len(l.items)
	if n == 0 {
		return nil
	}
	x := l.items[n-1]
	l.items[n-1] = nil
	l.items = l.items[:n-1]
	return x
}

// Put returns x to the list. Beyond the bound it is left to the GC.
func (l *FreeList[T]) Put(x *T) {
	if len(l.items) < maxFree {
		l.items = append(l.items, x)
	}
}

// Len reports how many records the list holds.
func (l *FreeList[T]) Len() int { return len(l.items) }
