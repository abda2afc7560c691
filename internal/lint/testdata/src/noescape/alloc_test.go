package noescape

import "testing"

func TestHotAddNoAlloc(t *testing.T) {
	n := testing.AllocsPerRun(100, func() { _ = hotAdd(1, 2) })
	if n != 0 {
		t.Fatal(n)
	}
}

func TestInnerAddNoAlloc(t *testing.T) {
	n := testing.AllocsPerRun(100, func() { _ = innerAdd(1, 2) }) // in the closure: no finding
	if n != 0 {
		t.Fatal(n)
	}
}

func TestColdAddNoAlloc(t *testing.T) {
	n := testing.AllocsPerRun(100, func() { _ = coldAdd(1, 2) }) // want `AllocsPerRun==0 assertion exercises no //dbwlm:hotpath function`
	if n != 0 {
		t.Fatal(n)
	}
}

func TestBudgetedAlloc(t *testing.T) {
	// Compared against a budget, not zero: the weaker claim is left alone.
	n := testing.AllocsPerRun(100, func() { _ = coldAdd(3, 4) })
	if n > 2 {
		t.Fatal(n)
	}
}
