package characterize

import "fmt"

// ResourcePool is a SQL Server Resource Governor-style pool: a MIN share
// that is guaranteed (non-overlapping across pools) and a MAX cap, as
// fractions of the server (Section 4.1.2.A).
type ResourcePool struct {
	Name   string
	MinCPU float64 // guaranteed fraction in [0, 1]
	MaxCPU float64 // cap in [MinCPU, 1]
	MinMem float64
	MaxMem float64
	// Internal marks the engine's own pool, which may pressure others.
	Internal bool
}

// Validate checks a single pool's bounds.
func (p *ResourcePool) Validate() error {
	if p.MinCPU < 0 || p.MinCPU > 1 || p.MinMem < 0 || p.MinMem > 1 {
		return fmt.Errorf("pool %q: MIN out of [0,1]", p.Name)
	}
	if p.MaxCPU < p.MinCPU || p.MaxCPU > 1 {
		return fmt.Errorf("pool %q: MaxCPU %v out of [MinCPU, 1]", p.Name, p.MaxCPU)
	}
	if p.MaxMem < p.MinMem || p.MaxMem > 1 {
		return fmt.Errorf("pool %q: MaxMem %v out of [MinMem, 1]", p.Name, p.MaxMem)
	}
	return nil
}

// PoolSet is a validated collection of resource pools.
type PoolSet struct {
	pools []*ResourcePool
}

// NewPoolSet validates that each pool is well-formed and the MIN reservations
// sum to at most 100%.
func NewPoolSet(pools ...*ResourcePool) (*PoolSet, error) {
	var sumMinCPU, sumMinMem float64
	seen := map[string]bool{}
	for _, p := range pools {
		if err := p.Validate(); err != nil {
			return nil, err
		}
		if seen[p.Name] {
			return nil, fmt.Errorf("duplicate pool %q", p.Name)
		}
		seen[p.Name] = true
		sumMinCPU += p.MinCPU
		sumMinMem += p.MinMem
	}
	if sumMinCPU > 1+1e-9 {
		return nil, fmt.Errorf("sum of CPU MIN reservations %.2f exceeds 100%%", sumMinCPU)
	}
	if sumMinMem > 1+1e-9 {
		return nil, fmt.Errorf("sum of memory MIN reservations %.2f exceeds 100%%", sumMinMem)
	}
	return &PoolSet{pools: pools}, nil
}

// Pools returns the pool list.
func (s *PoolSet) Pools() []*ResourcePool { return s.pools }

// AllocateCPU computes each pool's effective CPU fraction given which pools
// currently have demand. Pools with demand receive at least MIN, at most
// MAX; reservation of idle pools is redistributed proportionally ("shared
// portion"). The result sums to at most 1, and exactly 1 when some demanding
// pool is below its MAX.
func (s *PoolSet) AllocateCPU(demand map[string]bool) map[string]float64 {
	out := make(map[string]float64, len(s.pools))
	var demanding []*ResourcePool
	var reservedIdle float64
	for _, p := range s.pools {
		if demand[p.Name] {
			demanding = append(demanding, p)
			out[p.Name] = p.MinCPU
		} else {
			out[p.Name] = 0
			reservedIdle += p.MinCPU
		}
	}
	if len(demanding) == 0 {
		return out
	}
	// Free capacity = idle reservations + unreserved share.
	var reservedAll float64
	for _, p := range s.pools {
		reservedAll += p.MinCPU
	}
	free := (1 - reservedAll) + reservedIdle
	// Water-fill the free capacity equally among demanding pools, honoring
	// MAX caps.
	remaining := free
	open := append([]*ResourcePool(nil), demanding...)
	for remaining > 1e-12 && len(open) > 0 {
		share := remaining / float64(len(open))
		var next []*ResourcePool
		progressed := false
		for _, p := range open {
			room := p.MaxCPU - out[p.Name]
			if room <= share {
				out[p.Name] += room
				remaining -= room
				progressed = true
			} else {
				next = append(next, p)
			}
		}
		if !progressed {
			for _, p := range next {
				out[p.Name] += share
				remaining -= share
			}
			break
		}
		open = next
	}
	return out
}
