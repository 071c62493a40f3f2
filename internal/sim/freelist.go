package sim

// FreeList recycles *T values most-recent-first. It is the one free
// list behind every pooled event payload and transaction record. Get
// pops the value most recently Put (clearing the vacated slot so the
// list holds no stale pointer) or returns new(T) when the list is
// empty. A recycled value keeps whatever fields it had when it was
// Put: callers set per-use fields on every Get and bind one-time state
// (back pointers' method values) only when it is still missing. The
// zero value is an empty list; it is not safe for concurrent use.
type FreeList[T any] struct{ free []*T }

// Get returns the most recently Put value, or a new zero T.
func (l *FreeList[T]) Get() *T {
	n := len(l.free)
	if n == 0 {
		return new(T)
	}
	v := l.free[n-1]
	l.free[n-1] = nil
	l.free = l.free[:n-1]
	return v
}

// Put returns v to the list. The caller must not use v afterwards.
func (l *FreeList[T]) Put(v *T) { l.free = append(l.free, v) }
