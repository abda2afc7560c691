package engine

// ConflictRatioWalk is the conflict ratio as the walk over a map of the
// resident queries it replaced computes it, for the differential test of the
// external test package.
func ConflictRatioWalk(e *Engine) float64 {
	queries := make(map[int64]*Query, e.resident)
	for _, q := range e.live {
		if !q.state.Terminal() {
			queries[q.ID] = q
		}
	}
	return conflictRatio(queries)
}
