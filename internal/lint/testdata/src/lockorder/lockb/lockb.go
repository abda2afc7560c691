// Package lockb declares the locks for the two-package ordering cycle and
// contributes the Alpha-before-Beta half; package locka nests them the other
// way round. It also carries a same-package cycle seeded by a //dbwlm:locked
// contract, a two-instance self-nesting, and a nesting that no cycle closes —
// which the rule reports all the same, and a reasoned waiver settles.
package lockb

import "sync"

type Alpha struct{ Mu sync.Mutex }

type Beta struct{ Mu sync.Mutex }

// AB orders Alpha before Beta; locka.BA does the opposite.
func AB(a *Alpha, b *Beta) {
	a.Mu.Lock()
	defer a.Mu.Unlock()
	b.Mu.Lock() // want `acquires lockb.Beta.Mu while holding lockb.Alpha.Mu`
	b.Mu.Unlock()
}

// LockAlpha is the callee locka.BA reaches Alpha through.
func LockAlpha(a *Alpha) {
	a.Mu.Lock()
	a.Mu.Unlock()
}

// Delta's cycle comes half from a //dbwlm:locked contract (bump runs with mu
// held, so its aux acquisition nests inside mu) and half from flip.
type Delta struct {
	mu  sync.Mutex
	aux sync.Mutex
}

//dbwlm:locked mu
func (d *Delta) bump() {
	d.aux.Lock() // want `acquires lockb.Delta.aux while holding lockb.Delta.mu`
	d.aux.Unlock()
}

func (d *Delta) flip() {
	d.aux.Lock()
	defer d.aux.Unlock()
	d.mu.Lock() // want `acquires lockb.Delta.mu while holding lockb.Delta.aux`
	d.mu.Unlock()
}

// Gamma: the same abstract lock taken on two instances at once — two
// goroutines pairing instances in opposite orders deadlock.
type Gamma struct{ mu sync.Mutex }

func pair(x, y *Gamma) {
	x.mu.Lock()
	defer x.mu.Unlock()
	y.mu.Lock() // want `acquires lockb.Gamma.mu while holding lockb.Gamma.mu`
	y.mu.Unlock()
}

// ordered takes Alpha then Delta.mu and nobody takes them the other way
// round: the nesting is deliberate, so it says which order makes it safe.
func ordered(a *Alpha, d *Delta) {
	a.Mu.Lock()
	defer a.Mu.Unlock()
	//dbwlm:nolint lockorder -- fixture: Alpha.Mu is always taken before Delta.mu
	d.mu.Lock()
	d.mu.Unlock()
}

// relock takes the lock its callee takes: sync.Mutex is not reentrant, so on
// one instance this never returns, and on two it is pair's nesting again.
func relock(x *Gamma) {
	x.mu.Lock()
	defer x.mu.Unlock()
	lockGamma(x) // want `acquires lockb.Gamma.mu while holding lockb.Gamma.mu chain: lockb.relock -> lockb.lockGamma`
}

func lockGamma(x *Gamma) {
	x.mu.Lock()
	x.mu.Unlock()
}

// sequential holds one lock at a time: no finding.
func sequential(a *Alpha, b *Beta) {
	a.Mu.Lock()
	a.Mu.Unlock()
	b.Mu.Lock()
	b.Mu.Unlock()
}
