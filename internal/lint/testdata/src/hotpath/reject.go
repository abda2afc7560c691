// The reject-path half of the hotpath fixture: an error built by fmt.Errorf
// or errors.New as a return operand leaves the closure and is not a finding,
// arguments included; the same construction anywhere else still is.
package hotpath

import (
	"errors"
	"fmt"
)

//dbwlm:hotpath
func rejectReturned(n int) (int, error) {
	if n > 3 {
		return 0, fmt.Errorf("fixture: %d exceeds 3", n) // boxes n, silently
	}
	if n < 0 {
		return 0, errors.New("fixture: negative")
	}
	return n, nil
}

//dbwlm:hotpath
func rejectAssigned(n int) error {
	err := fmt.Errorf("fixture: %d", n) // want `fmt.Errorf in hotpath function allocates` `variadic call to fmt.Errorf` `int value boxed`
	return err
}

//dbwlm:hotpath
func rejectString(n int) string {
	return fmt.Sprintf("fixture: %d", n) // want `fmt.Sprintf in hotpath function allocates` `variadic call to fmt.Sprintf` `int value boxed`
}

//dbwlm:hotpath
func rejectDropped() int {
	_ = errors.New("fixture: built, never returned") // want `call to errors.New outside the hotpath stdlib allowlist`
	return 0
}
