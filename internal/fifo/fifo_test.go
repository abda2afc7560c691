package fifo

import (
	"slices"
	"testing"
)

// TestQueueMatchesSlice holds the queue to a plain slice under a random mix
// of pushes, inserts and drops.
func TestQueueMatchesSlice(t *testing.T) {
	var q Queue[int]
	var ref []int
	x := uint32(1)
	next := func(n int) int { // xorshift: deterministic, no seed plumbing
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		return int(x % uint32(n))
	}
	for step := 0; step < 20000; step++ {
		switch next(4) {
		case 0, 1:
			q.Push(step)
			ref = append(ref, step)
		case 2:
			i := next(len(ref) + 1)
			q.Insert(i, step)
			ref = slices.Insert(ref, i, step)
		default:
			n := next(len(ref) + 1)
			if next(2) == 0 && n > 1 {
				n = 1
			}
			q.Drop(n)
			ref = ref[n:]
		}
		if q.Len() != len(ref) || !slices.Equal(q.Items(), ref) {
			t.Fatalf("step %d: queue %v, want %v", step, q.Items(), ref)
		}
	}
}

// TestDropReleasesAndReuses is the property the queue exists for: a dropped
// element is not reachable from the backing array, and a queue cycling below
// its peak length keeps the array it has.
func TestDropReleasesAndReuses(t *testing.T) {
	var q Queue[*int]
	for i := 0; i < 64; i++ {
		q.Push(new(int))
	}
	q.Drop(10)
	for i, p := range q.items[:cap(q.items)] {
		if (p != nil) != (i >= q.head && i < len(q.items)) {
			t.Fatalf("slot %d of %d (head %d, len %d) holds %v", i, cap(q.items), q.head, len(q.items), p)
		}
	}
	v, warm := new(int), 0
	for i := 0; i < 2000; i++ {
		if i == 1000 {
			warm = cap(q.items)
		}
		q.Push(v)
		q.Drop(1)
	}
	if cap(q.items) != warm {
		t.Fatalf("steady push/drop kept re-growing the array: cap %d, was %d a thousand cycles earlier", cap(q.items), warm)
	}
	q.Drop(q.Len())
	if q.Len() != 0 || q.head != 0 {
		t.Fatalf("drained queue: len %d head %d", q.Len(), q.head)
	}
}
