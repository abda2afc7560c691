// Package impl sits under internal/: no other module can import it, so its
// exported API is no entry point of its own.
package impl

// FromAPI is live through deadcode.Exported.
func FromAPI() int { return 1 }

// FromMain is live through cmd/tool's main.
func FromMain() int { return 2 }

func Unused() int { return 3 } // want `impl.Unused is reached from no entry point`
