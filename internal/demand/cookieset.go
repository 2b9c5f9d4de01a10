package demand

// cookieSet is an exact distinct set of uint64 cookies, tuned for the
// aggregation hot path it replaced map[uint64]struct{} on (profiles
// showed runtime.mapassign_fast64 as the single largest aggregation
// cost). Three regimes, graduated by how much demand an entity turns
// out to have:
//
//   - tail entities — the vast majority under Zipfian demand — hold
//     their first few distinct cookies inline in the set itself: no
//     allocation, no pointer chase, one or two lines of the cookie
//     column;
//   - mid entities spill to an open-addressing table (power-of-two,
//     linear probing, splitmix64 finalizer hash) at 3/4 max load;
//   - head entities — which carry most of the click volume — convert
//     to a dense bitmap over the cookie population when the caller has
//     hinted its bound (SimConfig.Cookies: simulated cookies are drawn
//     from [1, Cookies]) and the table's next growth would reach a
//     quarter of the bitmap's words (the 4x rule). A bitmap add is one
//     L1-resident bit test, not a probe into a table of hundreds of
//     kilobytes, and the set never grows again.
//
// The 4x rule converts early: in the clicklog workload's shape (yelp,
// 5,000 entities, 1M refs, hint 40,000) every conversion happens when
// the first 64-slot table reaches 48 cookies, carving thousands of
// 5,000 B bitmaps per fold. Converting later does not pay. A serial
// FoldBatch over that shape cost 77–80 ns/ref converting at bitmap
// <= 4x the next table, 76–81 at 1x, 84–86 at 1/4x, 93–95 at 1/16x
// and 92–93 never converting.
//
// Counting is exact in all regimes (the paper's §4.1 unique-cookie
// demand measure is exact, so the aggregator must be too). The zero
// value is an empty set. Slot value 0 marks an empty slot; cookie 0
// (legal in replayed external logs, never produced by the simulator)
// is tracked aside, and cookies above the hint — impossible in
// simulation, arbitrary in replay — stay on the table path beside the
// bitmap.
// Field order is deliberate: the counters and both slice headers pack
// into the struct's first cache line, with the inline array on the
// second — one set spans exactly two lines of the aggregator's cookie
// column (sourceCols.cookies), so a tail-entity add touches at most
// two lines and a header-only add (bitmap regime) touches one.
type cookieSet struct {
	n     int32    // nonzero cookies stored across all regimes
	tn    int32    // cookies stored in slots alone (the table's load)
	zero  bool     // cookie 0 seen
	slots []uint64 // open-addressing table; nil until spill; 0 = empty
	bits  []uint64 // dense bitmap over cookies in [1, hint]; nil until convert
	small [smallCookies]uint64
}

// smallCookies is the inline capacity before spilling to the table.
const smallCookies = 8

// wordArena carves zeroed []uint64 storage for cookie tables and
// bitmaps out of large shared chunks, so the thousands of per-entity
// regime transitions of one fold cost a handful of chunk allocations
// instead of one malloc (plus GC bookkeeping) each — column-style
// backing storage for the cookie structures, owned by one Aggregator
// and therefore single-goroutine like the rest of its state. Carved
// slices are never reclaimed individually; storage abandoned by table
// growth is bounded by the 4x growth policy at under a third of the
// live footprint and dies with the aggregator.
type wordArena struct {
	cur []uint64
}

// arenaChunk is the arena's allocation unit: 32K words (256 KiB) —
// large enough to hold dozens of converted bitmaps per malloc, small
// enough that a tail-only shard wastes little.
const arenaChunk = 32 * 1024

// alloc returns a zeroed length-n slice with no spare capacity.
func (ar *wordArena) alloc(n int) []uint64 {
	if len(ar.cur) < n {
		size := arenaChunk
		if n > size {
			size = n
		}
		ar.cur = make([]uint64, size)
	}
	out := ar.cur[:n:n]
	ar.cur = ar.cur[n:]
	return out
}

// add inserts c if absent. hint, when positive, promises nothing about
// c but bounds the simulator's cookie population [1, hint]; 0 disables
// the bitmap regime (external replays without a known population).
//
// The return value is the modelled cookie-state traffic of the add in
// bytes — 8 per word examined or written (inline slots scanned, table
// probes, the bitmap word), plus the structures rehashed on a regime
// transition — feeding the aggregator's bytes-moved counter. It is an
// accounting model of state touched, not a hardware measurement, and
// callers that don't track bandwidth ignore it.
//
// ar backs any table or bitmap the add needs to create: regime
// transitions carve from it instead of calling make, so a fold that
// graduates thousands of entities pays a handful of chunk allocations.
func (s *cookieSet) add(c, hint uint64, ar *wordArena) (moved uint64) {
	if c == 0 {
		s.zero = true
		return 8
	}
	if s.bits != nil {
		// The bitmap's own length is the authority on its domain, not
		// the current hint: the hint may legally change between adds,
		// and a converted set must keep routing exactly the cookies it
		// covered at conversion to the bitmap (larger ones go to the
		// table beside it) — otherwise a raised hint would index past
		// the bitmap and a lowered one would double-count.
		if w := (c - 1) >> 6; w < uint64(len(s.bits)) {
			b := uint64(1) << ((c - 1) & 63)
			if s.bits[w]&b == 0 {
				s.bits[w] |= b
				s.n++
			}
			return 8
		}
	}
	if s.bits == nil && s.slots == nil {
		// Indexed loop: ranging the array field would copy it per add.
		for i := 0; i < smallCookies; i++ {
			switch s.small[i] {
			case c:
				return uint64(8 * (i + 1))
			case 0:
				s.small[i] = c
				s.n++
				return uint64(8 * (i + 1))
			}
		}
		moved += s.spill(ar)
	}
	if s.slots == nil {
		// First overflow cookie (> hint) after bitmap conversion.
		s.slots = ar.alloc(8 * smallCookies)
		moved += uint64(8 * len(s.slots))
	}
	mask := uint64(len(s.slots) - 1)
	i := mix64(c) & mask
	for {
		moved += 8
		switch s.slots[i] {
		case c:
			return moved
		case 0:
			s.slots[i] = c
			s.n++
			s.tn++
			// Grow 4x at 3/4 load: probe chains stay short, and the
			// rehash chain for a large set stays half as long as
			// doubling would make it — unless a bitmap over the hinted
			// population is no more than 4x the next table (the
			// type comment gives the measurement), in which case
			// convert once and stop growing forever.
			if 4*int(s.tn) >= 3*len(s.slots) {
				if next := 4 * len(s.slots); hint > 0 && s.bits == nil && bitmapWords(hint) <= 4*next {
					moved += s.convert(hint, ar)
				} else {
					moved += s.grow(next, ar)
				}
			}
			return moved
		}
		i = (i + 1) & mask
	}
}

// bitmapWords is the bitmap length covering cookies [1, hint].
func bitmapWords(hint uint64) int { return int((hint + 63) / 64) }

// probeInsert places c (known absent) into its linear-probe slot.
// slots must have a free slot; len must be a power of two.
func probeInsert(slots []uint64, c uint64) {
	mask := uint64(len(slots) - 1)
	i := mix64(c) & mask
	for slots[i] != 0 {
		i = (i + 1) & mask
	}
	slots[i] = c
}

// spill moves the full inline array into a fresh table, returning the
// modelled traffic (inline read + new table written).
func (s *cookieSet) spill(ar *wordArena) uint64 {
	s.slots = ar.alloc(8 * smallCookies)
	s.tn = s.n
	for _, c := range &s.small {
		probeInsert(s.slots, c)
	}
	return uint64(8 * (smallCookies + len(s.slots)))
}

// convert moves table cookies within the new bitmap's range into it;
// cookies beyond (none, in simulation) keep a shrunken table beside
// it. The partition criterion is the bitmap's word range — the same
// test add uses afterwards — so no cookie can ever straddle both
// structures, whatever the hint does later. Returns the modelled
// traffic: old table read + bitmap written (+ overflow table written).
func (s *cookieSet) convert(hint uint64, ar *wordArena) (moved uint64) {
	s.bits = ar.alloc(bitmapWords(hint))
	words := uint64(len(s.bits))
	old := s.slots
	s.slots = nil
	s.tn = 0
	moved = uint64(8 * (len(old) + len(s.bits)))
	var over []uint64
	for _, c := range old {
		if c == 0 {
			continue
		}
		if (c-1)>>6 < words {
			s.bits[(c-1)>>6] |= 1 << ((c - 1) & 63)
		} else {
			over = append(over, c)
		}
	}
	if len(over) > 0 {
		// Re-insert manually: n already counts these, so bypass add.
		s.tn = int32(len(over))
		size := 8 * smallCookies
		for 4*len(over) >= 3*size {
			size *= 4
		}
		s.slots = ar.alloc(size)
		for _, c := range over {
			probeInsert(s.slots, c)
		}
		moved += uint64(8 * size)
	}
	return moved
}

// grow rehashes into a table of the given power-of-two size, returning
// the modelled traffic (old table read + new table written).
func (s *cookieSet) grow(size int, ar *wordArena) uint64 {
	old := s.slots
	s.slots = ar.alloc(size)
	for _, c := range old {
		if c != 0 {
			probeInsert(s.slots, c)
		}
	}
	return uint64(8 * (len(old) + size))
}

// len returns the distinct-cookie count.
func (s *cookieSet) len() int {
	if s.zero {
		return int(s.n) + 1
	}
	return int(s.n)
}

// mix64 is the SplitMix64 finalizer, a strong 64-bit mixer.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
