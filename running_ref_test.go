package dbwlm

import (
	"cmp"
	"slices"
	"testing"

	"dbwlm/internal/engine"
)

// refRunning is the in-flight set as the Manager kept it before the engine's
// Live list held it: a map keyed by engine query ID, filled as a record is
// released into the engine and emptied as its finish starts.
type refRunning map[int64]*Running

// all is RunningAll as it was: the map's records sorted by query ID.
func (r refRunning) all() []*Running {
	out := make([]*Running, 0, len(r))
	for _, rr := range r {
		out = append(out, rr)
	}
	slices.SortFunc(out, func(a, b *Running) int { return cmp.Compare(a.Query.ID, b.Query.ID) })
	return out
}

// sessions is the dashboard's tally as it was over the map, taken over
// records already checked to be the map's: per workload, the active and the
// suspended sessions.
func sessions(rs []*Running) map[string][2]int {
	out := map[string][2]int{}
	for _, rr := range rs {
		n := out[rr.Req.Workload]
		if s := rr.Query.State(); s == engine.StateSuspended || s == engine.StateSuspending {
			n[1]++
		} else {
			n[0]++
		}
		out[rr.Req.Workload] = n
	}
	return out
}

func ids(rs []*Running) []int64 {
	out := make([]int64, len(rs))
	for i, r := range rs {
		out[i] = r.Query.ID
	}
	return out
}

// WatchRunning holds every Manager that runs until the test ends to the
// map-keyed reference: as each record joins its in-flight set and as each
// leaves it, RunningAll must list the reference's records in the same order,
// and the dashboard rows must carry the reference's session tallies. It returns the
// number of checks made so far. Managers must run on the test's goroutine.
func WatchRunning(t *testing.T) (checks func() int) {
	refs := map[*Manager]refRunning{}
	n := 0
	observeRunning = func(m *Manager, rr *Running, joined bool) {
		ref := refs[m]
		if ref == nil {
			ref = refRunning{}
			refs[m] = ref
		}
		if joined {
			ref[rr.Query.ID] = rr
		} else {
			delete(ref, rr.Query.ID)
		}
		n++
		got := m.RunningAll()
		// Past a few hundred records the sort makes the reference the
		// test's cost; there the check is that the walk is ascending and
		// holds exactly the map's records, which is the same condition.
		if len(ref) <= 256 {
			if want := ref.all(); !slices.Equal(got, want) {
				t.Fatalf("check %d at %v (query %d joined=%v): RunningAll lists %v, the map %v",
					n, m.Now(), rr.Query.ID, joined, ids(got), ids(want))
			}
		} else {
			for i, r := range got {
				if ref[r.Query.ID] != r || i > 0 && r.Query.ID <= got[i-1].Query.ID {
					t.Fatalf("check %d at %v: RunningAll's record %d (query %d) is not the map's next", n, m.Now(), i, r.Query.ID)
				}
			}
			if len(got) != len(ref) {
				t.Fatalf("check %d at %v: RunningAll lists %d records, the map %d", n, m.Now(), len(got), len(ref))
			}
		}
		tally := sessions(got)
		for _, row := range m.DashboardRows() {
			if s := tally[row.Workload]; row.ActiveSessions != s[0] || row.Suspended != s[1] {
				t.Fatalf("check %d at %v: workload %q has %d active / %d suspended sessions, the map %d / %d",
					n, m.Now(), row.Workload, row.ActiveSessions, row.Suspended, s[0], s[1])
			}
		}
	}
	t.Cleanup(func() { observeRunning = nil })
	return func() int { return n }
}
