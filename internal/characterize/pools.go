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
// currently have demand, both by position in Pools: demand[i] tells whether
// pool i has demand (a missing entry means no), and the result, written
// over shares' array when it is large enough, holds pool i's fraction at i.
// Pools with demand receive at least MIN, at most MAX; reservation of idle
// pools is redistributed proportionally ("shared portion"). The result sums
// to at most 1, and exactly 1 when some demanding pool is below its MAX.
func (s *PoolSet) AllocateCPU(demand []bool, shares []float64) []float64 {
	shares = shares[:0]
	// open lists the demanding pools below their MAX, in position order.
	var openBuf [16]int
	open := openBuf[:0]
	var reservedIdle float64
	for i, p := range s.pools {
		if i < len(demand) && demand[i] {
			open = append(open, i)
			shares = append(shares, p.MinCPU)
		} else {
			shares = append(shares, 0)
			reservedIdle += p.MinCPU
		}
	}
	if len(open) == 0 {
		return shares
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
	for remaining > 1e-12 && len(open) > 0 {
		share := remaining / float64(len(open))
		next := open[:0]
		progressed := false
		for _, i := range open {
			room := s.pools[i].MaxCPU - shares[i]
			if room <= share {
				shares[i] += room
				remaining -= room
				progressed = true
			} else {
				next = append(next, i)
			}
		}
		if !progressed {
			for _, i := range next {
				shares[i] += share
				remaining -= share
			}
			break
		}
		open = next
	}
	return shares
}
