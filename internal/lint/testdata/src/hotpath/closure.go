// The closure half of the hotpath fixture: blocking constructs and
// allocations reached from a //dbwlm:hotpath root through direct calls,
// function-typed fields, and interface dispatch, with the witness chain
// printed; //dbwlm:dyncall justifications as the escape hatch for injected
// behavior; a waiver on a call line pruning everything beneath it.
package hotpath

import (
	"sync"
	"time"
)

// Blocking and allocating three frames below the annotated root, in helpers
// that carry no annotation: the finding carries the chain root -> mid -> leaf
// to the offending statements.
//
//dbwlm:hotpath
func root() {
	mid()
}

func mid() { leaf() }

func leaf() {
	time.Sleep(time.Millisecond) // want `time.Sleep blocks on a hot closure` `chain: hotpath.root -> hotpath.mid -> hotpath.leaf`
	buf := make([]byte, 16)      // want `make in hotpath function allocates`
	_ = buf
}

// Three calls below a root, in a helper nobody annotated, both halves of the
// contract still hold: the allocation and the lock are findings, each with
// the whole path down.
//
//dbwlm:hotpath
func top(r *registry) { one(r) }

func one(r *registry) { two(r) }

func two(r *registry) { three(r) }

type registry struct {
	mu    sync.Mutex
	names []string
}

func three(r *registry) {
	r.mu.Lock()                    // want `sync.Mutex.Lock blocks on a hot closure` `chain: hotpath.top -> hotpath.one -> hotpath.two -> hotpath.three`
	r.names = append(r.names, "x") // want `append in hotpath function allocates` `chain: hotpath.top -> hotpath.one -> hotpath.two -> hotpath.three`
	r.mu.Unlock()                  // want `call to sync.Unlock outside the hotpath stdlib allowlist`
}

// ticker is the injected-clock pattern: now is swapped by tests, so its call
// is unresolvable but justified; cb carries no justification and is flagged.
type ticker struct {
	//dbwlm:dyncall -- injected clock: tests install a virtual clock, production installs a monotonic reader
	now func() int64

	cb func(int)
}

//dbwlm:hotpath
func (t *ticker) tick() int64 {
	return t.now() // justified on the field declaration: no finding
}

//dbwlm:hotpath
func (t *ticker) fire(v int) {
	t.cb(v) // want `call through function value t.cb with unresolvable targets on a hot closure`
}

// loop proves a //dbwlm:dyncall on the call site is a trusted boundary even
// when value flow resolves the target: step's body blocks, but the dispatch
// is justified, so the closure does not traverse into it.
type loop struct{ step func() }

func newLoop() *loop {
	l := &loop{}
	l.step = func() { time.Sleep(time.Second) }
	return l
}

//dbwlm:hotpath
func (l *loop) spin() {
	//dbwlm:dyncall -- generic dispatch: the scheduled callbacks are audited at their own roots
	l.step()
}

// runner reaches impl.do through a function-typed field and then interface
// dispatch (CHA): both hops extend the chain, and runner itself — never
// annotated — is still held to the allocation rules.
type doer interface{ do() }

type impl struct{ ch chan int }

func (i impl) do() {
	<-i.ch // want `channel receive blocks on a hot closure` `chain: hotpath.dispatch -> func literal \(closure.go:\d+\) -> hotpath.runner -> hotpath.impl.do`
}

type widget struct{ run func(doer) }

func newWidget() *widget {
	return &widget{run: func(d doer) { runner(d) }}
}

func runner(d doer) {
	pad := make([]int, 8) // want `make in hotpath function allocates`
	_ = pad
	d.do()
}

//dbwlm:hotpath
func dispatch(w *widget, d doer) {
	w.run(d) // resolved through the observed flow from newWidget
}

// A waiver on a call line covers the line and prunes the edges leaving it:
// slowPath and everything beneath it go unexamined, so the waiver inside it
// has nothing left to waive and is itself reported.
//
//dbwlm:hotpath
func guarded(full bool) {
	if full {
		//dbwlm:nolint hotpath -- fixture: the deliberate slow-path boundary
		slowPath()
	}
}

func slowPath() {
	//dbwlm:nolint hotpath -- fixture: never consulted, the traversal stops above
	// want[-1] `unused //dbwlm:nolint suppression`
	_ = make([]byte, 64)
	time.Sleep(time.Second)
}

// A literal created in a hot body is a node of its own: its statements are
// held to both halves of the contract, with its creator on the chain.
//
//dbwlm:hotpath
func deferred(ch chan int) {
	defer func() {
		ch <- 1 // want `channel send blocks on a hot closure` `chain: hotpath.deferred -> func literal \(closure.go:\d+\)`
	}()
}

// An unused justification is itself a finding on full runs.
//
//dbwlm:dyncall -- nothing dispatches through here
var spare func() // want[-1] `unused //dbwlm:dyncall justification`
