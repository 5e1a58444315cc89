// Package tier implements the memory-tiering mechanisms PathFinder's Case 7
// evaluates: TPP-style transparent page placement (hot-page promotion from
// the CXL tier plus cold-page demotion under local-memory pressure),
// Colloid's latency-balancing gate on top of it, and the PathFinder-guided
// dynamic variant that feeds Colloid the latency of the currently dominant
// request type instead of a fixed DRd latency.
package tier

import (
	"errors"
	"sort"

	"pathfinder/internal/mem"
)

// Migrator moves a page between NUMA nodes; *sim.Machine implements it
// (charging the transfer to the device counters).
type Migrator interface {
	MigratePage(addr uint64, dst mem.NodeID) error
}

// Mode selects the promotion policy.
type Mode uint8

// Tiering modes.
const (
	ModeTPP     Mode = iota // always promote hot CXL pages (TPP)
	ModeColloid             // promote only while CXL access latency exceeds local
)

// Config tunes the manager.
type Config struct {
	Mode Mode
	// PromoteThreshold is the sampled-access count that marks a CXL page
	// hot (TPP promotes on the second touch: 2).
	PromoteThreshold int
	// LocalHighWatermark is the local-node utilization above which cold
	// local pages are demoted to make promotion headroom.
	LocalHighWatermark float64
	// MaxMigrationsPerTick bounds migration bandwidth.
	MaxMigrationsPerTick int
	// DecayShift halves (>>1 per tick when 1) the heat counters each
	// tick; 0 disables decay.
	DecayShift uint
}

// DefaultConfig returns the TPP configuration used by the paper's Case 7.
func DefaultConfig() Config {
	return Config{
		Mode:                 ModeTPP,
		PromoteThreshold:     2,
		LocalHighWatermark:   0.95,
		MaxMigrationsPerTick: 64,
		DecayShift:           1,
	}
}

// Stats accumulates manager activity.
type Stats struct {
	Promoted, Demoted int
	SampledAccesses   uint64
}

// Manager tracks page heat from sampled memory accesses and migrates pages
// between the local and CXL tiers.
type Manager struct {
	as    *mem.AddressSpace
	mig   Migrator
	local mem.NodeID
	cxl   mem.NodeID
	cfg   Config

	heat      map[uint64]uint32 // page base -> decayed access count
	lastTouch map[uint64]uint64 // local page base -> logical time of last touch
	clock     uint64

	// Colloid latency inputs (nanoseconds), updated by the caller from
	// measurement (PFEstimator in the PathFinder-guided variant).
	localLat, cxlLat float64

	stats Stats
}

// NewManager builds a tiering manager over the address space.
func NewManager(as *mem.AddressSpace, mig Migrator, local, cxl mem.NodeID, cfg Config) (*Manager, error) {
	if as == nil || mig == nil {
		return nil, errors.New("tier: need an address space and a migrator")
	}
	if cfg.PromoteThreshold <= 0 {
		cfg.PromoteThreshold = 2
	}
	if cfg.MaxMigrationsPerTick <= 0 {
		cfg.MaxMigrationsPerTick = 64
	}
	if cfg.LocalHighWatermark <= 0 || cfg.LocalHighWatermark > 1 {
		cfg.LocalHighWatermark = 0.95
	}
	return &Manager{
		as:        as,
		mig:       mig,
		local:     local,
		cxl:       cxl,
		cfg:       cfg,
		heat:      make(map[uint64]uint32),
		lastTouch: make(map[uint64]uint64),
	}, nil
}

// Stats returns a copy of the activity counters.
func (t *Manager) Stats() Stats { return t.stats }

// SetLatencies feeds the per-tier access latencies (in any consistent
// unit) that gate Colloid-mode promotion.  In the PathFinder-guided
// variant the caller passes the latency of the dominant request type.
func (t *Manager) SetLatencies(localLat, cxlLat float64) {
	t.localLat, t.cxlLat = localLat, cxlLat
}

// ObserveAccess records one sampled memory access (the sim access hook).
func (t *Manager) ObserveAccess(lineAddr uint64) {
	t.stats.SampledAccesses++
	page := t.as.PageBase(lineAddr)
	switch t.as.NodeOf(page) {
	case t.cxl:
		t.heat[page]++
	case t.local:
		t.lastTouch[page] = t.clock
	}
	t.clock++
}

// promotionAllowed applies the mode gate.
func (t *Manager) promotionAllowed() bool {
	if t.cfg.Mode == ModeTPP {
		return true
	}
	// Colloid: balance access latencies — promote only while the CXL tier
	// is the slower one.
	return t.cxlLat > t.localLat
}

// Tick performs one migration pass: demote cold local pages if the local
// node is over its watermark, then promote hot CXL pages within the
// migration budget.  It returns the number of pages moved.  Both passes
// visit pages in a total order — demotion by (last touch, page), promotion
// by (heat descending, page) — so which pages fit the budget never depends
// on map iteration order.
func (t *Manager) Tick() (promoted, demoted int) {
	budget := t.cfg.MaxMigrationsPerTick

	// Demotion under pressure: pick the least-recently-touched local pages.
	localCap := float64(t.as.Node(t.local).Capacity)
	if float64(t.as.Used(t.local)) > t.cfg.LocalHighWatermark*localCap && len(t.lastTouch) > 0 {
		type cand struct {
			page  uint64
			touch uint64
		}
		cands := make([]cand, 0, len(t.lastTouch))
		for p, at := range t.lastTouch {
			if t.as.NodeOf(p) == t.local {
				cands = append(cands, cand{p, at})
			} else {
				delete(t.lastTouch, p)
			}
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].touch != cands[j].touch {
				return cands[i].touch < cands[j].touch
			}
			return cands[i].page < cands[j].page
		})
		for _, c := range cands {
			if demoted >= budget/2 {
				break
			}
			if float64(t.as.Used(t.local)) <= t.cfg.LocalHighWatermark*localCap {
				break
			}
			if err := t.mig.MigratePage(c.page, t.cxl); err == nil {
				demoted++
				delete(t.lastTouch, c.page)
			}
		}
	}

	// Promotion of hot CXL pages.
	if t.promotionAllowed() {
		hot := make([]uint64, 0, len(t.heat))
		for page, h := range t.heat {
			if int(h) >= t.cfg.PromoteThreshold {
				hot = append(hot, page)
			}
		}
		sort.Slice(hot, func(i, j int) bool {
			if hi, hj := t.heat[hot[i]], t.heat[hot[j]]; hi != hj {
				return hi > hj
			}
			return hot[i] < hot[j]
		})
		for _, page := range hot {
			if promoted >= budget {
				break
			}
			if t.as.NodeOf(page) != t.cxl {
				delete(t.heat, page)
				continue
			}
			if err := t.mig.MigratePage(page, t.local); err != nil {
				// Local node full: demote next tick, stop promoting now.
				break
			}
			promoted++
			delete(t.heat, page)
			t.lastTouch[page] = t.clock
		}
	}

	// Decay heat so stale hotness does not trigger late promotions.
	if t.cfg.DecayShift > 0 {
		for p, h := range t.heat {
			h >>= t.cfg.DecayShift
			if h == 0 {
				delete(t.heat, p)
			} else {
				t.heat[p] = h
			}
		}
	}

	t.stats.Promoted += promoted
	t.stats.Demoted += demoted
	return promoted, demoted
}
