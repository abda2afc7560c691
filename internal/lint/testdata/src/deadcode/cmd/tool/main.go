// Command tool is a main package: main is an entry point.
package main

import "fix/deadcode/internal/impl"

func main() { _ = impl.FromMain() }

func stray() {} // want `main.stray is reached from no entry point`
