// Package hotpath exercises the hotpath analyzer. This file: every construct
// the analyzer considers allocating fires below, and the allowed shapes
// (sync/atomic types, constants boxed through static data, clean callees)
// stay silent. closure.go: what is reached from a root rather than written
// in one.
package hotpath

import (
	"fmt"
	"strings"
	"sync/atomic"
)

type counter struct {
	n   int64
	hot atomic.Int64
}

func (c *counter) read() int64 { return c.n }

// helper is deliberately unannotated: the traversal descends into it from
// calls and finds nothing.
func helper() int { return 1 }

//dbwlm:hotpath
func allowed(c *counter) int64 {
	return c.hot.Add(1)
}

//dbwlm:hotpath
func sink(v any) { _ = v }

//dbwlm:hotpath
func variadicSink(vs ...int) int {
	total := 0
	for _, v := range vs {
		total += v
	}
	return total
}

//dbwlm:hotpath
func builtins(xs []int) []int {
	xs = append(xs, 1)  // want `append in hotpath function allocates`
	_ = make([]int, 4)  // want `make in hotpath function allocates`
	_ = new(counter)    // want `new in hotpath function allocates`
	_ = []int{1, 2}     // want `slice literal in hotpath function allocates`
	_ = map[int]int{}   // want `map literal in hotpath function allocates`
	p := &counter{n: 1} // want `escapes to the heap`
	_ = p
	return xs
}

//dbwlm:hotpath
func calls(c *counter) {
	x := helper()              // unannotated but clean: allowed
	sink(x)                    // want `int value boxed into interface parameter allocates`
	sink(3)                    // constants box through static data: allowed
	sink(c)                    // pointers do not box: allowed
	_ = variadicSink(1, 2)     // want `variadic call to variadicSink allocates its argument slice`
	_ = strings.Repeat("a", 2) // want `outside the hotpath stdlib allowlist`
	fmt.Print(c)               // want `fmt.Print in hotpath function allocates` `variadic call` `fmt.Print performs I/O on a hot closure`
	_ = allowed(c)             // annotated callee: allowed
	go allowed(c)              // want `go statement in hotpath function`
	n := helper()
	_ = func() int { return n } // want `closure capturing n in hotpath function allocates`
	_ = c.read                  // want `method value c.read allocates a bound closure`
}

//dbwlm:hotpath
func conversions(a, b string) int {
	s := a + b          // want `string concatenation in hotpath function allocates`
	raw := []byte(s)    // want `conversion in hotpath function allocates`
	back := string(raw) // want `conversion in hotpath function allocates`
	return len(back)
}

//dbwlm:hotpath
func suppressed(xs []int) []int {
	//dbwlm:nolint hotpath -- fixture: a justified suppression keeps the line silent
	return append(xs, 1)
}
