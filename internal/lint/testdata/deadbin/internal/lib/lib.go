// Package lib sits under internal/, so its exported API is no entry point
// of its own.
package lib

// Live is linked through main.
func Live() int { return 1 }

// Dead is reached from no entry point.
func Dead() int { return 2 }
