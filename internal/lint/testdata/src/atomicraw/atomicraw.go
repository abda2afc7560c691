// Package atomicraw holds the programs the retired direct-field discipline
// flagged — a raw int64 field passed to sync/atomic here and read plainly
// there, and a 64-bit one misaligned under 32-bit layout. The atomic rule
// flags the raw call that makes either possible.
package atomicraw

import "sync/atomic"

type stats struct {
	hits int64
	name string
}

func bump(s *stats) {
	atomic.AddInt64(&s.hits, 1) // want `atomic.AddInt64 operates on a raw word`
}

func read(s *stats) int64 {
	return s.hits // the plain read that races with bump
}

func label(s *stats) string {
	return s.name
}

type misaligned struct {
	flag bool
	n    int64 // offset 4 on 386: the atomic add below faults there
}

func bumpN(m *misaligned) int64 {
	return atomic.AddInt64(&m.n, 1) // want `atomic.AddInt64 operates on a raw word`
}

type aligned struct {
	n    int64
	flag bool
}

func bumpAligned(a *aligned) int64 {
	return atomic.AddInt64(&a.n, 1) // want `atomic.AddInt64 operates on a raw word`
}

// typed is the form the rule asks for: methods have no pointer to launder,
// and a function bound to a variable is still a mention.
type typed struct{ n atomic.Int64 }

func bumpTyped(t *typed) int64 { return t.n.Add(1) }

var load = atomic.LoadInt64 // want `atomic.LoadInt64 operates on a raw word`
