package execctl

import (
	"cmp"
	"slices"

	"dbwlm/internal/engine"
	"dbwlm/internal/sim"
)

// managed is the list of queries a controller manages, in ascending ID
// order, with the state the controller keeps per query. It holds IDs, not
// handles: a *engine.Query is valid only until its finish callback returns,
// so each sweep looks every query up again.
type managed struct {
	queries []managedQuery
	armed   bool
}

type managedQuery struct {
	id        int64
	tier      int      // the Ager's priority-aging tier (0 = top)
	nextPause sim.Time // when the Throttler may start the next interrupt pause
}

// sweeper is a controller's periodic pass over its managed queries. add
// takes the controller, not a method value, so a Manage call builds no
// closure.
type sweeper interface{ sweep() }

// add registers a query and returns its entry (a query added again keeps
// its entry). The first call starts c's sweep on e's simulator, every
// period.
func (l *managed) add(id int64, c sweeper, e *engine.Engine, period sim.Duration) *managedQuery {
	if !l.armed {
		l.armed = true
		e.Sim().Every(period, func() bool {
			c.sweep()
			return true
		})
	}
	i, found := slices.BinarySearchFunc(l.queries, id, func(q managedQuery, id int64) int { return cmp.Compare(q.id, id) })
	if !found {
		l.queries = slices.Insert(l.queries, i, managedQuery{id: id})
	}
	return &l.queries[i]
}

// each calls visit for every managed query still in the engine, in
// ascending ID order, and drops from the list the queries that have left it
// and those visit returns false for. visit must not add queries.
func (l *managed) each(e *engine.Engine, visit func(q *engine.Query, mq *managedQuery) bool) {
	kept := l.queries[:0]
	for i := range l.queries {
		mq := &l.queries[i]
		if q := e.Get(mq.id); q != nil && visit(q, mq) {
			kept = append(kept, *mq)
		}
	}
	l.queries = kept
}
