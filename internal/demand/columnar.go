package demand

import (
	"math"
	"time"
)

// Cache-blocked columnar batch folding.
//
// The scalar AddRef path scatter-updates one entity's state per
// 16-byte ClickRef: under Zipfian traffic over a large catalog the
// visit counters and cookie sets of successive refs land lines apart,
// so the fold's cost is dominated by memory traffic, not arithmetic
// (the PR 5 result, and PIMDAL's thesis for analytics generally).
// FoldBatch restructures that into a columnar pass: it partitions each
// incoming batch by (source, entity block) with a counting sort —
// blocks are foldBlockSize entities, so one block's visit-column span
// is a few KiB and its cookie-column span a few hundred KiB — then
// folds block by block, visits column first (as per-entity deltas
// applied once per distinct entity), cookie column second. Every
// memory access within a block lands in a bounded column span that
// stays cache-resident while the block's refs stream through it, and
// a head entity hit k times in a batch costs one visit-counter write
// instead of k scattered read-modify-writes.
//
// The result is bit-identical to an AddRef loop over the same refs:
// per-entity aggregation is order-independent (visit counts are
// commutative saturating sums, cookie sets are sets), invalid refs
// drop in the counting pass exactly as AddRef drops them, and the
// saturating delta apply clamps to the same MaxInt32 ceiling the
// scalar increment pins. TestFoldBatchMatchesAddRef property-tests
// the equivalence over adversarial splits and distributions.

const (
	// foldBlockShift sets the columnar fold's blocking granularity:
	// 1<<foldBlockShift entities per block. At 512 entities a block
	// spans 2 KiB of the visit column and 64 KiB of the cookie-set
	// column (128 B/set header+inline) — comfortably L2-resident on
	// the bench host while a batch's refs stream through the block.
	foldBlockShift = 9
	foldBlockSize  = 1 << foldBlockShift

	// DefaultFoldBatch is the batch size for a serial FoldBatch
	// caller: 4096 refs is 64 KiB of ClickRefs — large enough that
	// partitioning is amortized and head entities coalesce many hits
	// per block, small enough that batch plus scratch stay
	// cache-resident.
	DefaultFoldBatch = 4096
)

// Modelled per-touch widths for the bytes-moved accounting (see
// Aggregator.BytesMoved): one ClickRef streamed in, one int32 visit
// counter read+written.
const (
	refMoveBytes   = 16
	visitMoveBytes = 8
)

// foldScratch is FoldBatch's reusable working memory, sized lazily to
// the aggregator's entity count and the largest batch seen. All of it
// together is bounded by one batch of refs plus foldBlockSize counters
// — cache-resident by construction, which is why the bytes-moved model
// does not charge for it.
type foldScratch struct {
	refs    []ClickRef // valid refs grouped by (source, block)
	keys    []int32    // per-ref partition key, -1 invalid; computed once
	ends    []int32    // counting-sort offsets, one per (source, block)
	delta   []int32    // per-entity visit deltas within one block
	touched []int32    // block-local entities with nonzero delta
}

// FoldBatch folds a batch of refs — equivalent to calling AddRef on
// each in order, but cache-blocked and columnar as described above.
// Like AddRef it is not safe for concurrent use on one Aggregator;
// each shard worker owns its aggregator and folds alone. The batch
// slice is read-only to the fold and never retained.
//
//repro:noalloc
func (a *Aggregator) FoldBatch(batch []ClickRef) {
	n := len(a.perSrc[0].visits)
	if n == 0 || len(batch) == 0 {
		return
	}
	// Batch-amortized instrumentation: two clock reads and three atomic
	// adds per batch (~4K refs), not per ref. Explicit at both exits
	// rather than deferred — a defer closure would capture and cost on
	// the hot path.
	t0 := time.Now() //repro:nondeterm-ok per-batch fold-latency telemetry; fold results depend only on the refs
	nb := (n + foldBlockSize - 1) >> foldBlockShift
	keys := numSources * nb
	s := &a.scratch
	if len(s.ends) < keys {
		s.ends = make([]int32, keys) //repro:alloc-ok scratch grows to the high-water mark once; steady state reuses it
	}
	if cap(s.refs) < len(batch) {
		s.refs = make([]ClickRef, len(batch)) //repro:alloc-ok scratch grows to the high-water mark once; steady state reuses it
		s.keys = make([]int32, len(batch))    //repro:alloc-ok scratch grows to the high-water mark once; steady state reuses it
	}
	if s.delta == nil {
		s.delta = make([]int32, foldBlockSize)      //repro:alloc-ok one-time lazy scratch init, constant-sized
		s.touched = make([]int32, 0, foldBlockSize) //repro:alloc-ok one-time lazy scratch init, constant-sized
	}
	ends := s.ends[:keys]
	for k := range ends {
		ends[k] = 0
	}

	// Count valid refs per (source, block), recording each ref's key so
	// the scatter pass needn't re-derive it; out-of-range refs keep key
	// -1 and drop here, exactly the refs AddRef ignores.
	keysBuf := s.keys[:len(batch)]
	valid := int32(0)
	for i, r := range batch {
		if uint(r.Src) >= numSources || uint32(r.Entity) >= uint32(n) {
			keysBuf[i] = -1
			continue
		}
		k := int32(int(r.Src)*nb + int(r.Entity)>>foldBlockShift)
		keysBuf[i] = k
		ends[k]++
		valid++
	}
	if valid == 0 {
		obsFoldBatches.Inc()
		obsFoldSec.ObserveSince(t0)
		return
	}
	// Charge the ref stream for the refs actually folded — AddRef
	// never charges a dropped ref, and the two paths' accounting must
	// agree exactly.
	a.moved += uint64(valid) * refMoveBytes
	// Exclusive prefix sum: ends[k] becomes key k's start offset...
	off := int32(0)
	for k := range ends {
		c := ends[k]
		ends[k] = off
		off += c
	}
	// ...and the stable scatter advances it to the key's end offset.
	sorted := s.refs[:valid]
	for i, r := range batch {
		if k := keysBuf[i]; k >= 0 {
			sorted[ends[k]] = r
			ends[k]++
		}
	}

	lo := int32(0)
	for k := 0; k < keys; k++ {
		hi := ends[k]
		if hi == lo {
			continue
		}
		span := sorted[lo:hi]
		lo = hi
		col := &a.perSrc[k/nb]

		// Visits column: accumulate per-entity deltas in block-local
		// scratch, then apply each distinct entity once, with the
		// scalar path's saturation ceiling. The constant-length reslice
		// lets the compiler prove the masked index in range.
		delta := s.delta[:foldBlockSize]
		touched := s.touched[:0]
		for _, r := range span {
			e := r.Entity & (foldBlockSize - 1)
			if delta[e] == 0 {
				touched = append(touched, e) //repro:alloc-ok at most foldBlockSize distinct entries; scratch carries that capacity
			}
			delta[e]++
		}
		base := int32(k%nb) << foldBlockShift
		for _, e := range touched {
			d := delta[e]
			delta[e] = 0
			ge := base + e
			if nv := int64(col.visits[ge]) + int64(d); nv >= math.MaxInt32 {
				col.visits[ge] = math.MaxInt32
			} else {
				col.visits[ge] = int32(nv)
			}
		}
		a.moved += uint64(len(touched)) * visitMoveBytes

		// Cookie column: per-ref set inserts, confined to the block's
		// column span. The two regimes that dominate ref volume are
		// open-coded so their inserts are a few inlined ops instead of a
		// call into add: the bitmap hit (head entities after conversion —
		// most refs under Zipfian traffic) and the inline-array scan
		// with a free slot (tail entities — most *entities*). Everything
		// else — cookie 0, beyond-bitmap cookies, a full inline array,
		// the table regime, every transition — falls through to add,
		// whose branches apply the identical rules, so the fold's result
		// and bytes-moved accounting match a scalar AddRef loop exactly.
		var ck uint64
		for _, r := range span {
			cs := &col.cookies[r.Entity]
			if r.Cookie != 0 {
				if bs := cs.bits; bs != nil {
					if w := (r.Cookie - 1) >> 6; w < uint64(len(bs)) {
						b := uint64(1) << ((r.Cookie - 1) & 63)
						if bs[w]&b == 0 {
							bs[w] |= b
							cs.n++
						}
						ck += 8
						continue
					}
				} else if cs.slots == nil {
					hit := false
					for i := 0; i < smallCookies; i++ {
						switch cs.small[i] {
						case r.Cookie:
							ck += uint64(8 * (i + 1))
							hit = true
						case 0:
							cs.small[i] = r.Cookie
							cs.n++
							ck += uint64(8 * (i + 1))
							hit = true
						default:
							continue
						}
						break
					}
					if hit {
						continue
					}
				}
			}
			ck += cs.add(r.Cookie, a.hint, &a.arena)
		}
		a.moved += ck
	}
	obsFoldBatches.Inc()
	obsFoldRefs.Add(uint64(valid))
	obsFoldSec.ObserveSince(t0)
}
