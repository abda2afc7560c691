// Package locka closes the cross-package lock-order cycle the retired cycle
// finder reported: it acquires lockb.Beta.Mu and then reaches lockb.Alpha.Mu
// transitively, through a callee — the opposite of lockb.AB's order. Each
// half of the cycle is a nested acquisition, so each is a finding where it
// happens; this one carries the call path.
package locka

import "fix/lockorder/lockb"

// BA orders Beta before Alpha, through lockb.LockAlpha.
func BA(a *lockb.Alpha, b *lockb.Beta) {
	b.Mu.Lock()
	defer b.Mu.Unlock()
	lockb.LockAlpha(a) // want `acquires lockb.Alpha.Mu while holding lockb.Beta.Mu chain: locka.BA -> lockb.LockAlpha`
}
