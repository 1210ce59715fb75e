package cache

import (
	"testing"
	"testing/quick"

	"camouflage/internal/mem"
	"camouflage/internal/sim"
)

func newTestCache(t *testing.T) (*Cache, *mem.IDs) {
	t.Helper()
	var ids mem.IDs
	return mustNew(DefaultL2(), 0, &ids), &ids
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultL2().Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*Config){
		func(c *Config) { c.SizeBytes = 3000 },
		func(c *Config) { c.LineBytes = 60 },
		func(c *Config) { c.Ways = 0 },
		func(c *Config) { c.MSHRs = 0 },
		func(c *Config) { c.SizeBytes = 64 },
	}
	for i, mutate := range cases {
		cfg := DefaultL2()
		mutate(&cfg)
		if cfg.Validate() == nil {
			t.Fatalf("case %d: invalid config accepted", i)
		}
	}
}

func TestColdMissThenHit(t *testing.T) {
	c, _ := newTestCache(t)
	res, miss, wb := c.Access(1, 0x1000, false)
	if res != MissIssued || miss == nil || wb != nil {
		t.Fatalf("cold access: %v, miss=%v, wb=%v", res, miss, wb)
	}
	if miss.Addr != 0x1000&^uint64(63) || miss.Op != mem.Read {
		t.Fatalf("miss request %+v", miss)
	}
	c.Fill(10, miss)
	res, _, _ = c.Access(11, 0x1000, false)
	if res != Hit {
		t.Fatalf("post-fill access: %v", res)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 1 || st.Fills != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestSameLineDifferentOffsetHits(t *testing.T) {
	c, _ := newTestCache(t)
	_, miss, _ := c.Access(1, 0x1000, false)
	c.Fill(5, miss)
	if res, _, _ := c.Access(6, 0x1030, false); res != Hit {
		t.Fatal("same line, different offset missed")
	}
}

func TestMissMerging(t *testing.T) {
	c, _ := newTestCache(t)
	_, first, _ := c.Access(1, 0x2000, false)
	res, merged, _ := c.Access(2, 0x2008, false)
	if res != MissMerged {
		t.Fatalf("second access to outstanding line: %v", res)
	}
	if merged != first {
		t.Fatal("merged access did not return the outstanding request")
	}
	if c.OutstandingMisses() != 1 {
		t.Fatalf("outstanding %d, want 1", c.OutstandingMisses())
	}
	if waiters := c.Fill(10, first); waiters != 1 {
		t.Fatalf("fill returned %d waiters, want 1", waiters)
	}
}

func TestMSHRLimitBlocks(t *testing.T) {
	cfg := DefaultL2()
	var id mem.IDs
	c := mustNew(cfg, 0, &id)
	for i := 0; i < cfg.MSHRs; i++ {
		res, _, _ := c.Access(1, uint64(i)*0x10000, false)
		if res != MissIssued {
			t.Fatalf("miss %d: %v", i, res)
		}
	}
	res, _, _ := c.Access(2, 0x999990, false)
	if res != Blocked {
		t.Fatalf("over-MSHR access: %v", res)
	}
	if c.Stats().BlockedTries != 1 {
		t.Fatal("blocked try not counted")
	}
}

func TestDirtyEvictionProducesWriteback(t *testing.T) {
	cfg := DefaultL2()
	var id mem.IDs
	c := mustNew(cfg, 3, &id)
	// Fill one set completely with dirty lines: same set index, different
	// tags. Set stride = numSets * lineBytes.
	numSets := cfg.SizeBytes / cfg.LineBytes / uint64(cfg.Ways)
	stride := numSets * cfg.LineBytes
	for w := 0; w < cfg.Ways; w++ {
		_, miss, wb := c.Access(sim.Cycle(w+1), uint64(w)*stride, true)
		if wb != nil {
			t.Fatalf("premature writeback at way %d", w)
		}
		c.Fill(sim.Cycle(w+1), miss)
	}
	// One more allocation to the same set must evict a dirty line.
	_, _, wb := c.Access(100, uint64(cfg.Ways)*stride, false)
	if wb == nil {
		t.Fatal("no writeback on dirty eviction")
	}
	if wb.Op != mem.Write || wb.Core != 3 {
		t.Fatalf("writeback %+v", wb)
	}
	if c.Stats().Writebacks != 1 {
		t.Fatal("writeback not counted")
	}
}

func TestLRUVictimSelection(t *testing.T) {
	cfg := DefaultL2()
	var id mem.IDs
	c := mustNew(cfg, 0, &id)
	numSets := cfg.SizeBytes / cfg.LineBytes / uint64(cfg.Ways)
	stride := numSets * cfg.LineBytes
	// Fill the set; line 0 is oldest.
	for w := 0; w < cfg.Ways; w++ {
		_, miss, _ := c.Access(sim.Cycle(w+1), uint64(w)*stride, false)
		c.Fill(sim.Cycle(w+1), miss)
	}
	// Touch line 0 so line 1 becomes LRU.
	c.Access(50, 0, false)
	// Evict: line 1 must go, so line 0 still hits.
	_, miss, _ := c.Access(100, uint64(cfg.Ways)*stride, false)
	c.Fill(101, miss)
	if res, _, _ := c.Access(102, 0, false); res != Hit {
		t.Fatal("LRU evicted the recently used line")
	}
	if res, _, _ := c.Access(103, stride, false); res == Hit {
		t.Fatal("LRU kept the least recently used line")
	}
}

func TestWriteAllocate(t *testing.T) {
	c, _ := newTestCache(t)
	res, miss, _ := c.Access(1, 0x4000, true)
	if res != MissIssued || miss.Op != mem.Read {
		t.Fatal("store miss should fetch the line (write-allocate)")
	}
	c.Fill(5, miss)
	// The line was dirtied by the allocating store; evicting it later
	// must produce a writeback (covered above); here just confirm a hit.
	if res, _, _ := c.Access(6, 0x4000, false); res != Hit {
		t.Fatal("allocated store line not resident")
	}
}

func TestFillUnknownLineIgnored(t *testing.T) {
	c, _ := newTestCache(t)
	if waiters := c.Fill(1, &mem.Request{Addr: 0xABC000}); waiters != 0 {
		t.Fatal("fill of unknown line claimed waiters")
	}
}

func TestUniqueRequestIDs(t *testing.T) {
	c, _ := newTestCache(t)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		_, miss, _ := c.Access(sim.Cycle(i+1), uint64(i)*0x10000, false)
		if miss == nil {
			break // MSHRs full
		}
		if seen[miss.ID] {
			t.Fatalf("duplicate request ID %d", miss.ID)
		}
		seen[miss.ID] = true
		c.Fill(sim.Cycle(i+1), miss)
	}
}

func TestMissRateStat(t *testing.T) {
	var s Stats
	if s.MissRate() != 0 {
		t.Fatal("empty miss rate not 0")
	}
	s.Hits, s.Misses = 3, 1
	if s.MissRate() != 0.25 {
		t.Fatalf("miss rate %v", s.MissRate())
	}
}

func TestCacheNeverLosesLinesProperty(t *testing.T) {
	// Property: after an access-fill round trip, the line hits until it
	// is evicted by ways+1 distinct same-set allocations.
	cfg := Config{SizeBytes: 8 * 1024, Ways: 2, LineBytes: 64, HitLatency: 1, MSHRs: 8}
	numSets := cfg.SizeBytes / cfg.LineBytes / uint64(cfg.Ways)
	check := func(setSel uint8) bool {
		var id mem.IDs
		c := mustNew(cfg, 0, &id)
		set := uint64(setSel) % numSets
		addr := set * cfg.LineBytes
		_, miss, _ := c.Access(1, addr, false)
		if miss == nil {
			return false
		}
		c.Fill(2, miss)
		res, _, _ := c.Access(3, addr, false)
		return res == Hit
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

// mustNew is New panicking on error, for tests whose configs are known
// valid.
func mustNew(cfg Config, core int, ids *mem.IDs) *Cache {
	c, err := New(cfg, core, ids)
	if err != nil {
		panic(err)
	}
	return c
}
