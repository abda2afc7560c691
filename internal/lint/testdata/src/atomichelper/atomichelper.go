// Package atomichelper holds the program the retired helper-parameter flow
// analysis flagged: fields whose address reaches sync/atomic through helper
// functions (one hop, two hops, or via a local pointer) and are also read
// plainly. However the address travels, it ends in one raw call, and the
// atomic rule flags that.
package atomichelper

import "sync/atomic"

type Stats struct {
	Hits int64 // exported: package atomichelperuse reads it plainly from outside
	miss int64
	cold int64 // never reaches sync/atomic: plain access stays legal
}

func bump(p *int64) { atomic.AddInt64(p, 1) } // want `atomic.AddInt64 operates on a raw word`

// forward puts a second frame between the field and the raw call.
func forward(p *int64) { bump(p) }

// New is a constructor of Stats: plain initialization is the idiom here.
func New() *Stats {
	s := &Stats{}
	s.miss = 0
	s.Hits = 0
	return s
}

func (s *Stats) Hit()  { bump(&s.Hits) }
func (s *Stats) Miss() { forward(&s.miss) }

// MissPtr reaches the atomic through a local pointer variable.
func (s *Stats) MissPtr() {
	p := &s.miss
	bump(p)
}

func (s *Stats) Total() int64 {
	s.cold++
	return s.Hits + s.miss // the plain reads that race with Hit and Miss
}
