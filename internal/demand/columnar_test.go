package demand

import (
	"bytes"
	"testing"

	"repro/internal/dist"
	"repro/internal/logs"
)

// adversarialRefs builds a ref stream slanted the way FoldBatch's
// blocking cares about: head-heavy (a handful of entities take most
// refs, so batch partitions are wildly uneven and visit deltas
// coalesce hard), cookie values spanning every cookieSet regime
// (heavy duplicates, the hinted population, cookie 0, beyond-hint),
// both sources interleaved, and a sprinkle of invalid refs (negative,
// out-of-range entity; unknown source) that every fold must drop.
func adversarialRefs(n, events int, seed uint64) []ClickRef {
	rng := dist.NewRNG(seed)
	refs := make([]ClickRef, 0, events)
	for i := 0; i < events; i++ {
		var e int32
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4, 5:
			e = int32(rng.Intn(3)) // head: 3 entities take 60% of refs
		case 6:
			e = int32(n - 1 - rng.Intn(3)) // tail end of the last block
		default:
			e = int32(rng.Intn(n))
		}
		var c uint64
		switch rng.Intn(8) {
		case 0:
			c = 0
		case 1, 2, 3:
			c = uint64(rng.Intn(10)) + 1 // heavy duplicates
		case 4:
			c = 400 + uint64(rng.Intn(100)) // beyond the hint below
		default:
			c = uint64(rng.Intn(300)) + 1
		}
		r := ClickRef{Cookie: c, Entity: e, Day: int16(rng.Intn(360)), Src: uint8(rng.Intn(numSources))}
		switch rng.Intn(40) {
		case 0:
			r.Entity = -1 - int32(rng.Intn(5))
		case 1:
			r.Entity = int32(n + rng.Intn(5))
		case 2:
			r.Src = uint8(numSources + rng.Intn(3))
		}
		refs = append(refs, r)
	}
	return refs
}

// TestFoldBatchMatchesAddRef is the columnar fold's property test: for
// shard counts {1,2,4,8}, folding an adversarial stream through
// FoldBatch under arbitrary batch splits — including empty and nil
// batches — produces estimates AND modelled bytes-moved identical to a
// scalar AddRef loop over the same refs. Runs hinted and unhinted so
// both the bitmap and pure-table cookie regimes are covered.
func TestFoldBatchMatchesAddRef(t *testing.T) {
	const entities = 1500 // spans multiple fold blocks, last one partial
	cat := testCatalog(t, logs.Amazon, entities)
	stream := adversarialRefs(entities, 60000, 7)
	for _, hint := range []int{0, 500} {
		for _, shards := range []int{1, 2, 4, 8} {
			scalar := NewShardedAggregator(cat, shards)
			batched := NewShardedAggregator(cat, shards)
			if hint > 0 {
				scalar.SetCookieHint(hint)
				batched.SetCookieHint(hint)
			}
			// Route the same stream to both, shard by shard: the scalar
			// side folds ref by ref, the batched side in randomly split
			// batches (whose sizes have nothing to do with block or
			// shard geometry).
			rng := dist.NewRNG(uint64(1000*hint + shards))
			pending := make([][]ClickRef, shards)
			cut := func(s int) {
				sh := batched.shards[s]
				sh.FoldBatch(nil)
				sh.FoldBatch(pending[s])
				pending[s] = pending[s][:0]
			}
			for _, r := range stream {
				lr := r
				s := 0
				if uint32(r.Entity) < uint32(entities) {
					s = batched.localize(&lr)
				}
				scalarRef := lr
				scalar.shards[s].AddRef(scalarRef)
				pending[s] = append(pending[s], lr)
				if len(pending[s]) >= 1+rng.Intn(700) {
					cut(s)
				}
			}
			for s := range pending {
				cut(s)
			}
			if got, want := estimateBytes(t, batched), estimateBytes(t, scalar); !bytes.Equal(got, want) {
				t.Fatalf("hint=%d shards=%d: batched estimates differ from scalar", hint, shards)
			}
			// The modelled traffic is NOT identical by design: the ref
			// and cookie components agree exactly, but the batch fold
			// coalesces visit-counter touches (one per distinct entity
			// per block per batch, vs one per ref), which is the saving
			// the bytes/click metric exists to show. So batched ≤
			// scalar, and the gap is at most the scalar fold's entire
			// visit charge (visitMoveBytes per valid ref).
			valid := uint64(0)
			for _, r := range stream {
				if uint(r.Src) < numSources && uint32(r.Entity) < uint32(entities) {
					valid++
				}
			}
			sb, bb := scalar.BytesMoved(), batched.BytesMoved()
			if bb > sb {
				t.Fatalf("hint=%d shards=%d: batched moved %d > scalar %d", hint, shards, bb, sb)
			}
			if sb-bb > valid*visitMoveBytes {
				t.Fatalf("hint=%d shards=%d: gap %d exceeds the visit charge %d — components diverged",
					hint, shards, sb-bb, valid*visitMoveBytes)
			}
		}
	}
}

// TestFoldBatchSingleRefBatches: one-ref batches coalesce nothing, so
// FoldBatch must match a scalar AddRef loop over a simulated stream in
// the estimates and, exactly, in the bytes-moved accounting — pinning
// every non-visit component of the model to the scalar's.
func TestFoldBatchSingleRefBatches(t *testing.T) {
	cat := testCatalog(t, logs.Amazon, 200)
	cfg := SimConfig{Events: 3000, Cookies: 800, Seed: 11}
	refs := serialRefs(t, cat, cfg)
	scalar, batched := NewAggregator(cat), NewAggregator(cat)
	scalar.SetCookieHint(cfg.Cookies)
	batched.SetCookieHint(cfg.Cookies)
	for i, r := range refs {
		scalar.AddRef(r)
		batched.FoldBatch(refs[i : i+1])
	}
	if !bytes.Equal(estimateBytes(t, batched), estimateBytes(t, scalar)) {
		t.Fatal("single-ref batches: estimates differ from scalar AddRef")
	}
	if bb, sb := batched.BytesMoved(), scalar.BytesMoved(); bb != sb {
		t.Fatalf("single-ref batches: bytes moved %d != scalar %d", bb, sb)
	}
}
