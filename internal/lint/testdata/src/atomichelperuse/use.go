// Package atomichelperuse is the cross-package half of the atomichelper
// program: Hits is bumped atomically through a helper over there and read
// plainly here. The finding is on the raw call in atomichelper.bump, without
// which this read could not race.
package atomichelperuse

import "fix/atomichelper"

func Report(s *atomichelper.Stats) int64 {
	return s.Hits
}
