package workload

import (
	"reflect"
	"testing"

	"dbwlm/internal/engine"
)

// TestFreeRequestKeepsOnlyTheLockArray pins what a recycled request carries
// into its next use: nothing but the capacity of its lock array.
func TestFreeRequestKeepsOnlyTheLockArray(t *testing.T) {
	locks := make([]engine.LockReq, 2, 4)
	r := &Request{ID: 5, SQL: "SELECT 1", Workload: "w", Resubmit: 2,
		True: engine.QuerySpec{CPUWork: 1, Locks: locks}}
	FreeRequest(r)
	if len(r.True.Locks) != 0 || cap(r.True.Locks) != 4 || &r.True.Locks[:1][0] != &locks[0] {
		t.Fatalf("lock array not kept empty: len %d cap %d", len(r.True.Locks), cap(r.True.Locks))
	}
	r.True.Locks = nil
	if !reflect.DeepEqual(*r, Request{}) {
		t.Fatalf("freed request keeps fields: %+v", *r)
	}
}

// TestCloneSharesNoLockArray: a clone survives its original being freed and
// its lock array reused.
func TestCloneSharesNoLockArray(t *testing.T) {
	r := &Request{ID: 7, True: engine.QuerySpec{Locks: []engine.LockReq{{Key: 1, Exclusive: true}}}}
	c := r.Clone()
	r.True.Locks[0].Key = 2
	if c.ID != 7 || len(c.True.Locks) != 1 || c.True.Locks[0] != (engine.LockReq{Key: 1, Exclusive: true}) {
		t.Fatalf("clone = %+v, want ID 7 with its own lock on key 1", c)
	}
}
