package sim

import "testing"

type pooled struct{ id int }

// TestFreeListLIFO: Get pops the most recent Put first, and a value
// keeps the fields it had when it was Put.
func TestFreeListLIFO(t *testing.T) {
	var l FreeList[pooled]
	a, b, c := &pooled{1}, &pooled{2}, &pooled{3}
	l.Put(a)
	l.Put(b)
	l.Put(c)
	for _, want := range []*pooled{c, b, a} {
		if got := l.Get(); got != want {
			t.Fatalf("Get = %p (id %d), want %p (id %d)", got, got.id, want, want.id)
		}
	}
	l.Put(b)
	if got := l.Get(); got != b || got.id != 2 {
		t.Fatalf("recycled value = %p %+v, want %p with id 2", got, got, b)
	}
}

// TestFreeListEmptyYieldsFreshZeros: an empty list (the zero value
// included) hands out distinct zero values.
func TestFreeListEmptyYieldsFreshZeros(t *testing.T) {
	var l FreeList[pooled]
	x, y := l.Get(), l.Get()
	if x == nil || y == nil || x == y {
		t.Fatalf("empty Get returned %p and %p, want two distinct values", x, y)
	}
	if *x != (pooled{}) || *y != (pooled{}) {
		t.Fatalf("empty Get returned %+v and %+v, want zero values", *x, *y)
	}
	l.Put(x)
	l.Get()
	if z := l.Get(); z == x || *z != (pooled{}) {
		t.Fatalf("Get on a drained list returned %p %+v, want a fresh zero value", z, *z)
	}
}

// TestFreeListClearsVacatedSlot: Get nils the slot it pops, so the
// backing array holds no pointer to a value handed out again.
func TestFreeListClearsVacatedSlot(t *testing.T) {
	var l FreeList[pooled]
	l.Put(&pooled{1})
	l.Put(&pooled{2})
	l.Get()
	backing := l.free[:cap(l.free)]
	if backing[1] != nil {
		t.Fatalf("vacated slot 1 still holds %+v", *backing[1])
	}
	if backing[0] == nil || backing[0].id != 1 {
		t.Fatalf("live slot 0 = %v, want id 1", backing[0])
	}
	l.Get()
	if backing[0] != nil {
		t.Fatalf("vacated slot 0 still holds %+v", *backing[0])
	}
}
