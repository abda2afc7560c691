// Package deadcode exercises the deadcode analyzer. It is a library outside
// internal/, so its exported API is an entry point; cmd/tool is a main
// package; internal/impl is reached only through the two. A declaration
// without a want is live, through the entry point its comment names.
package deadcode

import (
	"fmt"

	"fix/deadcode/internal/impl"
)

// Exported is API other modules may call.
func Exported() int {
	var s shape = square{}
	return helper() + s.area() + impl.FromAPI()
}

// helper is live through Exported.
func helper() int { return 1 }

// shape's only call site is Exported's: CHA resolves it to square.area.
type shape interface{ area() int }

type square struct{}

func (square) area() int { return 4 }

func orphan() int { return 2 } // want `deadcode.orphan is reached from no entry point`

// testOnly is called from deadcode_test.go alone, and tests add no edges.
func testOnly() int { return 3 } // want `deadcode.testOnly is reached from no entry point`

// hot states a performance contract, not an entry point.
//
//dbwlm:hotpath
func hot() int { return 5 } // want `deadcode.hot is reached from no entry point`

// waived is an entry point by its waiver, and so keeps waivedCallee.
//
//dbwlm:nolint deadcode -- fixture: a waived declaration is an entry point
func waived() int { return waivedCallee() }

// waivedCallee is live through waived.
func waivedCallee() int { return 6 }

// Live is API already; its waiver suppresses nothing.
//
//dbwlm:nolint deadcode -- fixture: a waiver on live code is reported unused
func Live() {} // want[-1] `unused //dbwlm:nolint suppression`

// celsius.String is called by fmt through fmt.Stringer, which CHA cannot
// see: a method sharing a standard-library interface method's name and
// signature is an entry point.
type celsius float64

func (c celsius) String() string { return format(float64(c)) }

// format is live through celsius.String.
func format(v float64) string { return fmt.Sprint(v) }

// bag implements no standard interface, but Len shares reflect.Type's
// method, which the linker keeps once bag reaches an interface: so does the
// analyzer.
type bag []int

func (b bag) Len() int { return len(b) }

// table is never read, but package initialization evaluates it, and with it
// the reference to fromVar.
var table = []func() int{fromVar}

func fromVar() int { return 7 }

func init() { fromInit() }

// fromInit is live through init.
func fromInit() {}
