// Package cache implements the last-level cache each simulated core sits
// behind: set-associative with LRU replacement, write-back/write-allocate,
// and a bounded set of MSHRs that merge concurrent misses to the same line.
// Its miss stream is the memory traffic that Camouflage shapes; its MSHR
// bound is what converts sustained memory latency into core stalls.
package cache

import (
	"fmt"
	"math/bits"

	"camouflage/internal/mem"
	"camouflage/internal/sim"
)

// Config sizes a cache.
type Config struct {
	// SizeBytes is total capacity; it must be a power of two.
	SizeBytes uint64
	// Ways is the set associativity.
	Ways int
	// LineBytes is the block size (the paper uses 64 B).
	LineBytes uint64
	// HitLatency is charged to the core on a hit.
	HitLatency sim.Cycle
	// MSHRs bounds outstanding misses (the paper's cores have 8).
	MSHRs int
}

// DefaultL2 returns the paper's per-core private 128 KB, 8-way L2.
func DefaultL2() Config {
	return Config{SizeBytes: 128 * 1024, Ways: 8, LineBytes: 64, HitLatency: 12, MSHRs: 8}
}

// Validate rejects malformed configurations.
func (c Config) Validate() error {
	switch {
	case c.SizeBytes == 0 || c.SizeBytes&(c.SizeBytes-1) != 0:
		return fmt.Errorf("cache: SizeBytes must be a power of two, got %d", c.SizeBytes)
	case c.LineBytes == 0 || c.LineBytes&(c.LineBytes-1) != 0:
		return fmt.Errorf("cache: LineBytes must be a power of two, got %d", c.LineBytes)
	case c.Ways <= 0:
		return fmt.Errorf("cache: Ways must be positive, got %d", c.Ways)
	case c.MSHRs <= 0:
		return fmt.Errorf("cache: MSHRs must be positive, got %d", c.MSHRs)
	case c.SizeBytes < c.LineBytes*uint64(c.Ways):
		return fmt.Errorf("cache: size %d too small for %d ways of %d-byte lines", c.SizeBytes, c.Ways, c.LineBytes)
	}
	return nil
}

// AccessResult classifies what a lookup did.
type AccessResult uint8

// Lookup outcomes.
const (
	// Hit: the line was present; charge Config.HitLatency.
	Hit AccessResult = iota
	// MissIssued: a new miss was allocated; the returned request must be
	// sent toward memory.
	MissIssued
	// MissMerged: the line already has an outstanding miss; this access
	// will complete when that fill returns.
	MissMerged
	// Blocked: no MSHR was free; retry next cycle.
	Blocked
)

// String implements fmt.Stringer.
func (r AccessResult) String() string {
	switch r {
	case Hit:
		return "hit"
	case MissIssued:
		return "miss"
	case MissMerged:
		return "merged"
	case Blocked:
		return "blocked"
	default:
		return fmt.Sprintf("AccessResult(%d)", uint8(r))
	}
}

type line struct {
	tag   uint64
	valid bool
	dirty bool
	used  sim.Cycle // LRU timestamp
}

type mshr struct {
	lineAddr uint64
	req      *mem.Request
	// waiters counts merged accesses (for statistics).
	waiters int
}

// Stats aggregates cache counters.
type Stats struct {
	Hits         uint64
	Misses       uint64
	Merged       uint64
	BlockedTries uint64
	Writebacks   uint64
	Fills        uint64
}

// MissRate returns misses / (hits + misses).
func (s Stats) MissRate() float64 {
	t := s.Hits + s.Misses
	if t == 0 {
		return 0
	}
	return float64(s.Misses) / float64(t)
}

// Cache is one core's LLC.
type Cache struct {
	cfg      Config
	core     int
	sets     [][]line
	setMask  uint64
	lineBits uint
	mshrs    []mshr
	ids      *mem.IDs
	pool     *mem.Pool // nil falls back to plain allocation

	stats Stats
}

// SetPool makes the cache draw miss and writeback requests from pool
// instead of allocating. A nil pool (the default) keeps plain allocation.
func (c *Cache) SetPool(pool *mem.Pool) { c.pool = pool }

// New returns a cache for core with the given config. ids supplies
// globally unique request IDs (shared across cores so bus traces have a
// total order). The configuration is user input (scenario files, flags),
// so an invalid one is an error, not a panic.
func New(cfg Config, core int, ids *mem.IDs) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	numSets := cfg.SizeBytes / cfg.LineBytes / uint64(cfg.Ways)
	if numSets == 0 || numSets&(numSets-1) != 0 {
		return nil, fmt.Errorf("cache: set count %d not a power of two", numSets)
	}
	sets := make([][]line, numSets)
	for i := range sets {
		sets[i] = make([]line, cfg.Ways)
	}
	return &Cache{
		cfg:      cfg,
		core:     core,
		sets:     sets,
		setMask:  numSets - 1,
		lineBits: uint(bits.TrailingZeros64(cfg.LineBytes)),
		mshrs:    make([]mshr, 0, cfg.MSHRs),
		ids:      ids,
	}, nil
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// OutstandingMisses returns the number of occupied MSHRs.
func (c *Cache) OutstandingMisses() int { return len(c.mshrs) }

// Access performs a lookup at cycle now. On MissIssued the returned miss
// request (a read fill, or a write fill for a store miss) must be sent
// toward memory; the optional writeback is the evicted dirty line, also to
// be sent. The caller owns delivering both.
func (c *Cache) Access(now sim.Cycle, addr uint64, write bool) (AccessResult, *mem.Request, *mem.Request) {
	lineAddr := addr >> c.lineBits
	setIdx := lineAddr & c.setMask
	set := c.sets[setIdx]
	tag := lineAddr >> bits.Len64(c.setMask)

	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].used = now
			if write {
				set[i].dirty = true
			}
			c.stats.Hits++
			return Hit, nil, nil
		}
	}

	// Merge with an outstanding miss to the same line.
	for i := range c.mshrs {
		if c.mshrs[i].lineAddr == lineAddr {
			c.mshrs[i].waiters++
			c.stats.Merged++
			return MissMerged, c.mshrs[i].req, nil
		}
	}

	if len(c.mshrs) >= c.cfg.MSHRs {
		c.stats.BlockedTries++
		return Blocked, nil, nil
	}

	c.stats.Misses++
	miss := c.pool.Get()
	miss.ID = c.ids.Next()
	miss.Core = c.core
	miss.Addr = lineAddr << c.lineBits
	miss.Op = mem.Read // write-allocate: fetch the line, then dirty it
	miss.CreatedAt = now
	c.mshrs = append(c.mshrs, mshr{lineAddr: lineAddr, req: miss})

	wb := c.victimize(now, setIdx, tag, write)
	return MissIssued, miss, wb
}

// victimize reserves a way in set setIdx for an incoming fill (invalid
// until the fill arrives) and returns a writeback request if the evicted
// victim was dirty. Victim selection is LRU, preferring invalid ways.
func (c *Cache) victimize(now sim.Cycle, setIdx, tag uint64, write bool) *mem.Request {
	set := c.sets[setIdx]
	v := -1
	for i := range set {
		if !set[i].valid {
			v = i
			break
		}
		if v == -1 || set[i].used < set[v].used {
			v = i
		}
	}
	var wb *mem.Request
	if set[v].valid && set[v].dirty {
		c.stats.Writebacks++
		victimLine := set[v].tag<<bits.Len64(c.setMask) | setIdx
		wb = c.pool.Get()
		wb.ID = c.ids.Next()
		wb.Core = c.core
		wb.Addr = victimLine << c.lineBits
		wb.Op = mem.Write
		wb.CreatedAt = now
	}
	set[v] = line{tag: tag, valid: false, dirty: write, used: now}
	return wb
}

// RelinkMSHRs replaces restored MSHR placeholder requests with the live
// in-flight objects restored elsewhere in the pipeline, keyed by request
// ID. Checkpoints write the MSHR's request by value, so a plain restore
// leaves the MSHR aliasing a private duplicate; once re-linked, the
// response delivered to the core and the MSHR entry are one object
// again and the pool never sees two copies of the same request. The
// displaced placeholder returns to the pool. Entries whose request is
// in flight nowhere (a fault-dropped transaction) keep their
// placeholder.
func (c *Cache) RelinkMSHRs(live map[uint64]*mem.Request) {
	for i := range c.mshrs {
		if r, ok := live[c.mshrs[i].req.ID]; ok && r != c.mshrs[i].req {
			c.pool.Put(c.mshrs[i].req)
			c.mshrs[i].req = r
		}
	}
}

// Fill completes the outstanding miss carried by resp: the reserved way
// becomes valid and the MSHR frees. Fills for unknown lines (for example a
// line whose reservation was re-victimized) are ignored. It returns the
// number of merged waiters that also complete.
func (c *Cache) Fill(now sim.Cycle, resp *mem.Request) int {
	lineAddr := resp.Addr >> c.lineBits
	for i := range c.mshrs {
		if c.mshrs[i].lineAddr != lineAddr {
			continue
		}
		waiters := c.mshrs[i].waiters
		c.mshrs = append(c.mshrs[:i], c.mshrs[i+1:]...)
		set := c.sets[lineAddr&c.setMask]
		tag := lineAddr >> bits.Len64(c.setMask)
		for j := range set {
			if set[j].tag == tag && !set[j].valid {
				set[j].valid = true
				set[j].used = now
				break
			}
		}
		c.stats.Fills++
		return waiters
	}
	return 0
}
