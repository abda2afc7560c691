// Command deadbin is the fixture binary TestDeadCodeNeverLive builds beside
// the real commands: its closure always holds a function the deadcode
// analyzer finds unreachable, so the test's negative side checks something
// however few dead functions the real module has.
package main

import "deadbin/internal/lib"

func main() { println(lib.Live()) }

func stray() {} // reached from no entry point
