package workload

import (
	"reflect"
	"testing"

	"dbwlm/internal/engine"
)

// TestFreeRequestKeepsOnlyItsArrays pins what a recycled request carries
// into its next use: nothing but the capacity of its SQL and lock arrays.
func TestFreeRequestKeepsOnlyItsArrays(t *testing.T) {
	sql := append(make([]byte, 0, 16), "SELECT 1"...)
	locks := make([]engine.LockReq, 2, 4)
	r := &Request{ID: 5, SQL: sql, Workload: "w", Resubmit: 2,
		True: engine.QuerySpec{CPUWork: 1, Locks: locks}}
	FreeRequest(r)
	if len(r.True.Locks) != 0 || cap(r.True.Locks) != 4 || &r.True.Locks[:1][0] != &locks[0] {
		t.Fatalf("lock array not kept empty: len %d cap %d", len(r.True.Locks), cap(r.True.Locks))
	}
	if len(r.SQL) != 0 || cap(r.SQL) != 16 || &r.SQL[:1][0] != &sql[0] {
		t.Fatalf("SQL array not kept empty: len %d cap %d", len(r.SQL), cap(r.SQL))
	}
	r.SQL, r.True.Locks = nil, nil
	if !reflect.DeepEqual(*r, Request{}) {
		t.Fatalf("freed request keeps fields: %+v", *r)
	}
}

// TestCloneSharesNoArray: a clone survives its original being freed and its
// SQL and lock arrays reused.
func TestCloneSharesNoArray(t *testing.T) {
	r := &Request{ID: 7, SQL: []byte("SELECT 1"), True: engine.QuerySpec{Locks: []engine.LockReq{{Key: 1, Exclusive: true}}}}
	c := r.Clone()
	r.True.Locks[0].Key = 2
	r.SQL[7] = '2'
	if c.ID != 7 || len(c.True.Locks) != 1 || c.True.Locks[0] != (engine.LockReq{Key: 1, Exclusive: true}) {
		t.Fatalf("clone = %+v, want ID 7 with its own lock on key 1", c)
	}
	if string(c.SQL) != "SELECT 1" {
		t.Fatalf("clone's SQL = %q, want its own copy of SELECT 1", c.SQL)
	}
}
