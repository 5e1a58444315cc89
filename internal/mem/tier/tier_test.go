package tier

import (
	"testing"

	"pathfinder/internal/mem"
)

// fakeMigrator moves pages directly in the address space and records moves.
type fakeMigrator struct {
	as    *mem.AddressSpace
	moves int
	fail  bool
}

func (f *fakeMigrator) MigratePage(addr uint64, dst mem.NodeID) error {
	if f.fail {
		return mem.ErrNoCapacity
	}
	if err := f.as.MovePage(addr, dst); err != nil {
		return err
	}
	f.moves++
	return nil
}

func tierSpace(t *testing.T, localCap uint64) (*mem.AddressSpace, mem.Region) {
	t.Helper()
	as := mem.NewAddressSpace(12, []mem.Node{
		{ID: 0, Kind: mem.LocalDRAM, Capacity: localCap},
		{ID: 1, Kind: mem.CXLDRAM, Device: 0, Capacity: 1 << 30},
	})
	r, err := as.Alloc(64*4096, mem.Fixed(1)) // 64 pages, all CXL
	if err != nil {
		t.Fatal(err)
	}
	return as, r
}

func TestNewManagerValidation(t *testing.T) {
	as, _ := tierSpace(t, 1<<30)
	if _, err := NewManager(nil, &fakeMigrator{as: as}, 0, 1, DefaultConfig()); err == nil {
		t.Fatal("nil space accepted")
	}
	if _, err := NewManager(as, nil, 0, 1, DefaultConfig()); err == nil {
		t.Fatal("nil migrator accepted")
	}
	m, err := NewManager(as, &fakeMigrator{as: as}, 0, 1, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if m.cfg.PromoteThreshold != 2 || m.cfg.MaxMigrationsPerTick != 64 {
		t.Fatalf("defaults not applied: %+v", m.cfg)
	}
}

func TestTPPPromotesHotPages(t *testing.T) {
	as, r := tierSpace(t, 1<<30)
	mig := &fakeMigrator{as: as}
	m, err := NewManager(as, mig, 0, 1, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Touch the first 4 pages repeatedly (hot), the rest once (cold).
	for pass := 0; pass < 3; pass++ {
		for p := uint64(0); p < 4; p++ {
			m.ObserveAccess(r.Base + p*4096 + 64)
		}
	}
	for p := uint64(4); p < 64; p++ {
		m.ObserveAccess(r.Base + p*4096)
	}
	promoted, demoted := m.Tick()
	if promoted != 4 {
		t.Fatalf("promoted %d pages, want 4", promoted)
	}
	if demoted != 0 {
		t.Fatalf("demoted %d with ample local capacity", demoted)
	}
	for p := uint64(0); p < 4; p++ {
		if as.NodeOf(r.Base+p*4096) != 0 {
			t.Fatalf("hot page %d not on local node", p)
		}
	}
	if as.NodeOf(r.Base+10*4096) != 1 {
		t.Fatal("cold page promoted")
	}
	if m.Stats().Promoted != 4 {
		t.Fatalf("stats: %+v", m.Stats())
	}
}

func TestPromotionBudget(t *testing.T) {
	as, r := tierSpace(t, 1<<30)
	cfg := DefaultConfig()
	cfg.MaxMigrationsPerTick = 3
	m, _ := NewManager(as, &fakeMigrator{as: as}, 0, 1, cfg)
	for pass := 0; pass < 3; pass++ {
		for p := uint64(0); p < 10; p++ {
			m.ObserveAccess(r.Base + p*4096)
		}
	}
	promoted, _ := m.Tick()
	if promoted != 3 {
		t.Fatalf("promoted %d, want budget 3", promoted)
	}
}

func TestDemotionUnderPressure(t *testing.T) {
	// Local node fits only 8 pages; fill it, then promote hot CXL pages.
	as := mem.NewAddressSpace(12, []mem.Node{
		{ID: 0, Kind: mem.LocalDRAM, Capacity: 8 * 4096},
		{ID: 1, Kind: mem.CXLDRAM, Capacity: 1 << 30},
	})
	local, err := as.Alloc(8*4096, mem.Fixed(0))
	if err != nil {
		t.Fatal(err)
	}
	cxl, err := as.Alloc(8*4096, mem.Fixed(1))
	if err != nil {
		t.Fatal(err)
	}
	m, _ := NewManager(as, &fakeMigrator{as: as}, 0, 1, DefaultConfig())

	// Touch local pages (establish recency), then hot CXL pages.
	for p := uint64(0); p < 8; p++ {
		m.ObserveAccess(local.Base + p*4096)
	}
	for pass := 0; pass < 3; pass++ {
		for p := uint64(0); p < 4; p++ {
			m.ObserveAccess(cxl.Base + p*4096)
		}
	}
	// First tick: local is at 100% > watermark -> demote coldest local
	// pages, freeing room for promotion.
	promoted, demoted := m.Tick()
	if demoted == 0 {
		t.Fatal("no demotion despite full local node")
	}
	if promoted == 0 {
		t.Fatal("no promotion after demotion freed room")
	}
	// The demoted pages are the least recently touched ones (0, 1, ...).
	if as.NodeOf(local.Base) != 1 {
		t.Fatal("coldest local page not demoted")
	}
}

func TestColloidGate(t *testing.T) {
	as, r := tierSpace(t, 1<<30)
	cfg := DefaultConfig()
	cfg.Mode = ModeColloid
	m, _ := NewManager(as, &fakeMigrator{as: as}, 0, 1, cfg)
	for pass := 0; pass < 3; pass++ {
		m.ObserveAccess(r.Base)
	}
	// Local latency exceeds CXL (contended local): promotion must pause.
	m.SetLatencies(500, 355)
	if p, _ := m.Tick(); p != 0 {
		t.Fatalf("promoted %d while local is slower", p)
	}
	// Heat decays each tick, so re-heat and flip the balance.
	for pass := 0; pass < 3; pass++ {
		m.ObserveAccess(r.Base)
	}
	m.SetLatencies(103, 355)
	if p, _ := m.Tick(); p != 1 {
		t.Fatalf("promoted %d with CXL slower, want 1", p)
	}
}

func TestHeatDecay(t *testing.T) {
	as, r := tierSpace(t, 1<<30)
	cfg := DefaultConfig()
	cfg.PromoteThreshold = 4
	m, _ := NewManager(as, &fakeMigrator{as: as}, 0, 1, cfg)
	// Two touches per tick never reaches threshold 4 with decay 1.
	for tick := 0; tick < 5; tick++ {
		m.ObserveAccess(r.Base)
		m.ObserveAccess(r.Base)
		if p, _ := m.Tick(); p != 0 {
			t.Fatalf("tick %d promoted a lukewarm page", tick)
		}
	}
	// Four touches in one tick promotes.
	for i := 0; i < 4; i++ {
		m.ObserveAccess(r.Base)
	}
	if p, _ := m.Tick(); p != 1 {
		t.Fatal("hot page not promoted")
	}
}

func TestMigrationFailureStopsPromotion(t *testing.T) {
	as, r := tierSpace(t, 1<<30)
	mig := &fakeMigrator{as: as, fail: true}
	m, _ := NewManager(as, mig, 0, 1, DefaultConfig())
	for pass := 0; pass < 3; pass++ {
		m.ObserveAccess(r.Base)
	}
	if p, _ := m.Tick(); p != 0 {
		t.Fatal("promotion succeeded despite migrator failure")
	}
}

// orderMigrator is a fakeMigrator that also logs every move in order.
type orderMigrator struct {
	fakeMigrator
	log []uint64
}

func (o *orderMigrator) MigratePage(addr uint64, dst mem.NodeID) error {
	if err := o.fakeMigrator.MigratePage(addr, dst); err != nil {
		return err
	}
	o.log = append(o.log, addr)
	return nil
}

// TestTickOrderDeterministic: with many equal-heat pages and a budget far
// below the candidate count, fresh managers fed the same accesses must
// migrate the same pages in the same order — hottest first, ties by page —
// and demote by (last touch, page).
func TestTickOrderDeterministic(t *testing.T) {
	run := func() []uint64 {
		as := mem.NewAddressSpace(12, []mem.Node{
			{ID: 0, Kind: mem.LocalDRAM, Capacity: 16 * 4096},
			{ID: 1, Kind: mem.CXLDRAM, Device: 0, Capacity: 1 << 30},
		})
		r, err := as.Alloc(64*4096, mem.Fixed(1))
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.MaxMigrationsPerTick = 8
		mig := &orderMigrator{fakeMigrator: fakeMigrator{as: as}}
		m, _ := NewManager(as, mig, 0, 1, cfg)
		for tick := 0; tick < 6; tick++ {
			// Every page equally warm; pages 60..63 hotter still.
			for pass := 0; pass < 2; pass++ {
				for p := uint64(0); p < 64; p++ {
					m.ObserveAccess(r.Base + p*4096)
				}
			}
			for p := uint64(60); p < 64; p++ {
				m.ObserveAccess(r.Base + p*4096)
			}
			m.Tick()
		}
		return mig.log
	}
	first := run()
	if len(first) < 16 {
		t.Fatalf("only %d migrations; the scenario must exercise promotion and demotion", len(first))
	}
	for i := 0; i < 10; i++ {
		again := run()
		if len(again) != len(first) {
			t.Fatalf("run %d migrated %d pages, first run %d", i, len(again), len(first))
		}
		for j := range first {
			if again[j] != first[j] {
				t.Fatalf("run %d move %d: page %#x, first run %#x", i, j, again[j], first[j])
			}
		}
	}
	// The first tick promotes the four hottest pages, then the lowest
	// equal-heat pages up to the budget of 8.
	base := first[4] // page 0
	for i, want := range []uint64{60, 61, 62, 63, 0, 1, 2, 3} {
		if got := (first[i] - base) / 4096; got != want {
			t.Fatalf("first tick move %d: page %d, want %d", i, got, want)
		}
	}
}
