// Package uarch provides the microarchitectural building blocks shared by
// the timing simulators: set-associative caches with a shared-L3 coherence
// directory, TLBs, a gshare branch predictor, a next-line prefetcher, and
// two core timing engines — a fast interval model (Sniper-style) and a
// detailed out-of-order scoreboard model (CoreSim/gem5-style).
package uarch

// CacheCfg configures one cache level.
type CacheCfg struct {
	Name      string
	SizeBytes int
	Ways      int
	LineBytes int
	LatCycles int // hit latency
}

// Standard line size used by every configuration.
const LineBytes = 64

// Cache is one set-associative, LRU cache level.
type Cache struct {
	cfg CacheCfg
	// ways holds every set's entries back to back, Ways per set, in LRU
	// order (MRU first). An entry is line+1 for a valid line and 0 for an
	// empty or invalidated way, so one compare tests valid-and-equal.
	ways     []uint64
	nways    int
	setMask  uint64
	shift    uint
	Accesses uint64
	Misses   uint64
}

// NewCache builds a cache from its configuration.
func NewCache(cfg CacheCfg) *Cache {
	if cfg.LineBytes == 0 {
		cfg.LineBytes = LineBytes
	}
	nsets := cfg.SizeBytes / (cfg.LineBytes * cfg.Ways)
	if nsets < 1 {
		nsets = 1
	}
	c := &Cache{cfg: cfg, ways: make([]uint64, nsets*cfg.Ways), nways: cfg.Ways,
		setMask: uint64(nsets - 1)}
	for s := uint(0); 1<<s < cfg.LineBytes; s++ {
		c.shift = s + 1
	}
	return c
}

// Line returns the line address (addr with offset bits cleared).
func (c *Cache) line(addr uint64) uint64 { return addr >> c.shift }

// set returns the ways of the set line ln maps to.
func (c *Cache) set(ln uint64) []uint64 {
	i := int(ln&c.setMask) * c.nways
	return c.ways[i : i+c.nways : i+c.nways]
}

// Lookup probes the cache without fill. Returns hit.
func (c *Cache) Lookup(addr uint64) bool {
	ln := c.line(addr)
	for _, e := range c.set(ln) {
		if e == ln+1 {
			return true
		}
	}
	return false
}

// Access probes the cache and fills on miss (LRU replacement). It returns
// true on hit.
func (c *Cache) Access(addr uint64) bool {
	c.Accesses++
	ln := c.line(addr)
	key := ln + 1
	set := c.set(ln)
	if set[0] == key {
		// MRU hit: the LRU order is already right.
		return true
	}
	for w := 1; w < len(set); w++ {
		if set[w] == key {
			// Move to MRU.
			copy(set[1:w+1], set[:w])
			set[0] = key
			return true
		}
	}
	c.Misses++
	// Fill at MRU; evict LRU.
	copy(set[1:], set[:len(set)-1])
	set[0] = key
	return false
}

// Invalidate removes a line if present.
func (c *Cache) Invalidate(addr uint64) {
	ln := c.line(addr)
	set := c.set(ln)
	for w, e := range set {
		if e == ln+1 {
			set[w] = 0
			return
		}
	}
}

// MissRate returns misses/accesses.
func (c *Cache) MissRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Accesses)
}

// HierarchyCfg configures a multicore cache hierarchy.
type HierarchyCfg struct {
	L1I, L1D, L2 CacheCfg // private per core
	L3           CacheCfg // shared
	MemLatency   int      // DRAM access cycles
	// Prefetch enables a next-line prefetcher at L2.
	Prefetch bool
}

// Hierarchy is a multicore cache hierarchy with a simple invalidation-based
// coherence directory over the private levels.
type Hierarchy struct {
	cfg   HierarchyCfg
	cores int
	l1i   []*Cache
	l1d   []*Cache
	l2    []*Cache
	L3    *Cache
	// owners tracks which cores may hold each line in private caches.
	// Every data access enters its line, so its size is also the data
	// footprint in lines.
	owners map[uint64]uint32
	// lastLine/lastMask memoize owners for the most recently accessed
	// line (lastLine is line+1; 0 is empty). Only AccessData writes
	// owners, and it refreshes the memo on every access.
	lastLine uint64
	lastMask uint32

	// Stats.
	Invalidations  uint64
	PrefetchIssued uint64
}

// NewHierarchy builds a hierarchy for the given core count.
func NewHierarchy(cfg HierarchyCfg, cores int) *Hierarchy {
	h := &Hierarchy{
		cfg: cfg, cores: cores,
		L3:     NewCache(cfg.L3),
		owners: make(map[uint64]uint32),
	}
	for i := 0; i < cores; i++ {
		h.l1i = append(h.l1i, NewCache(cfg.L1I))
		h.l1d = append(h.l1d, NewCache(cfg.L1D))
		h.l2 = append(h.l2, NewCache(cfg.L2))
	}
	return h
}

// L1DFor returns core i's L1 data cache (for stats).
func (h *Hierarchy) L1DFor(core int) *Cache { return h.l1d[core] }

// L2For returns core i's L2 cache (for stats).
func (h *Hierarchy) L2For(core int) *Cache { return h.l2[core] }

// FootprintLines returns the number of unique data lines touched.
func (h *Hierarchy) FootprintLines() int { return len(h.owners) }

// FootprintBytes returns the data footprint in bytes.
func (h *Hierarchy) FootprintBytes() uint64 { return uint64(len(h.owners)) * LineBytes }

// AccessData performs a data access from a core and returns its latency.
func (h *Hierarchy) AccessData(core int, addr uint64, write bool) int {
	ln := addr >> 6
	bit := uint32(1) << uint(core)
	mask, seen := h.lastMask, true
	if h.lastLine != ln+1 {
		mask, seen = h.owners[ln]
	}
	owners := mask | bit
	if write {
		// Invalidate other cores' private copies.
		if mask != 0 {
			for c := 0; c < h.cores; c++ {
				if c != core && mask&(1<<uint(c)) != 0 {
					h.l1d[c].Invalidate(addr)
					h.l2[c].Invalidate(addr)
					h.Invalidations++
				}
			}
		}
		owners = bit
	}
	if !seen || owners != mask {
		h.owners[ln] = owners
	}
	h.lastLine, h.lastMask = ln+1, owners

	if h.l1d[core].Access(addr) {
		return h.cfg.L1D.LatCycles
	}
	if h.l2[core].Access(addr) {
		return h.cfg.L2.LatCycles
	}
	if h.cfg.Prefetch {
		h.PrefetchIssued++
		h.l2[core].Access(addr + LineBytes)
		h.L3.Access(addr + LineBytes)
	}
	if h.L3.Access(addr) {
		return h.cfg.L3.LatCycles
	}
	return h.cfg.MemLatency
}

// AccessCode performs an instruction fetch from a core.
func (h *Hierarchy) AccessCode(core int, addr uint64) int {
	if h.l1i[core].Access(addr) {
		return h.cfg.L1I.LatCycles
	}
	if h.l2[core].Access(addr) {
		return h.cfg.L2.LatCycles
	}
	if h.L3.Access(addr) {
		return h.cfg.L3.LatCycles
	}
	return h.cfg.MemLatency
}
