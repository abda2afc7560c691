// Package noescape exercises the AllocsPerRun guard: a zero-allocation
// assertion must exercise a function in the hot closure — a //dbwlm:hotpath
// root or a helper reached from one — coupling the dynamic test to the static
// analyzer.
package noescape

//dbwlm:hotpath
func hotAdd(a, b int) int { return innerAdd(a, b) }

// innerAdd carries no annotation; hotAdd's closure covers it.
func innerAdd(a, b int) int { return a + b }

func coldAdd(a, b int) int { return a + b }
