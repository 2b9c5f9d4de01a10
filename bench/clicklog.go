package main

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/demand"
	"repro/internal/fsx"
	"repro/internal/logs"
	"repro/internal/seg"
)

// The clicklog workload writes real files with fsx.SyncOff: the cycle
// measures the codecs and the demand fold, not the disk's fsync latency,
// which on shared hosts varies far more than the work itself.
const clickSync = fsx.SyncOff

type clicklogBench struct {
	sz     sizes
	cat    *demand.Catalog
	sim    demand.SimConfig
	ref    [32]byte // demand digest of a live GeneratePipeline run
	dir    string
	browse uint8 // ClickRef.Src of browse traffic
}

// stage names the five timed stages of one clicklog cycle.
var stages = [5]string{"seg_write", "seg_replay", "seg_pushdown", "tsv_write", "tsv_replay"}

type stageTimes [5]time.Duration

func (st stageTimes) total() time.Duration {
	var t time.Duration
	for _, d := range st {
		t += d
	}
	return t
}

// prepareClicklog's set-up generates the yelp catalog and folds the
// live pipeline's demand, whose digest every replay must reproduce.
func prepareClicklog(p params) (bench, []time.Duration, error) {
	dir, err := os.MkdirTemp(p.outDir, "clicklog-")
	if err != nil {
		return nil, nil, err
	}
	browse, _ := demand.SourceIndex(logs.Browse)
	b := &clicklogBench{sz: p.sz, dir: dir, browse: browse}
	var setups []time.Duration
	for i := 0; i < p.setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		cat, err := demand.GenerateCatalog(demand.SiteDefaults(logs.Yelp, p.sz.clickCatalog, derive(p.seed, "catalog", 0)))
		if err != nil {
			b.close()
			return nil, nil, err
		}
		sim := demand.SimConfig{Events: p.sz.clickEvents, Cookies: 8 * p.sz.clickCatalog, Seed: derive(p.seed, "clicks", 0)}
		sa, err := demand.GeneratePipeline(cat, sim, demand.PipelineConfig{})
		if err != nil {
			b.close()
			return nil, nil, err
		}
		ref := demandDigest(sa)
		setups = append(setups, time.Since(t0))
		if i > 0 && ref != b.ref {
			b.close()
			return nil, nil, fmt.Errorf("live pipeline digest changed between set-ups")
		}
		b.cat, b.sim, b.ref = cat, sim, ref
	}
	return b, setups, nil
}

// op is one cycle with the program's default worker counts.
func (b *clicklogBench) op(_, _ int) (time.Duration, error) {
	st, err := b.cycle(0)
	return st.total(), err
}

func (b *clicklogBench) close() error { return os.RemoveAll(b.dir) }

func (b *clicklogBench) segPath() string { return filepath.Join(b.dir, "clicks.seg") }
func (b *clicklogBench) tsvPath() string { return filepath.Join(b.dir, "clicks.tsv") }

// clicks is the log length of one cycle.
func (b *clicklogBench) clicks() int { return 2 * b.sim.Events }

// cycle runs the five stages once — generate a segment file, replay it,
// replay it with a browse-only pushdown, generate a TSV log, replay it —
// with workers generator and shard workers (0: GOMAXPROCS). Checks run
// between stages, outside the timed regions.
func (b *clicklogBench) cycle(workers int) (stageTimes, error) {
	var st stageTimes
	pc := demand.PipelineConfig{Generators: workers}
	// Each cycle writes new files, as `clicklog gen` to a new path does.
	// Renaming over the previous cycle's files would make ext4
	// (auto_da_alloc) write their data out at once, timing the disk.
	for _, path := range []string{b.segPath(), b.tsvPath()} {
		if err := os.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return st, err
		}
	}

	t0 := time.Now()
	err := b.writeSeg(pc)
	st[0] = time.Since(t0)
	if err != nil {
		return st, err
	}

	t0 = time.Now()
	sa, _, err := b.replaySeg(seg.All(), workers)
	st[1] = time.Since(t0)
	if err != nil {
		return st, err
	}
	if err := b.checkDemand("seg replay", sa); err != nil {
		return st, err
	}

	t0 = time.Now()
	_, rs, err := b.replaySeg(seg.All().WithSrc(b.browse), workers)
	st[2] = time.Since(t0)
	if err != nil {
		return st, err
	}
	if rs.Matched != uint64(b.sim.Events) {
		return st, fmt.Errorf("pushdown replay matched %d refs, want the %d browse clicks", rs.Matched, b.sim.Events)
	}

	t0 = time.Now()
	err = b.writeTSV(pc)
	st[3] = time.Since(t0)
	if err != nil {
		return st, err
	}

	t0 = time.Now()
	sa, err = b.replayTSV(workers)
	st[4] = time.Since(t0)
	if err != nil {
		return st, err
	}
	if resolved, dropped := sa.FeedStats(); dropped != 0 || resolved != uint64(b.clicks()) {
		return st, fmt.Errorf("tsv replay resolved %d and dropped %d of %d clicks", resolved, dropped, b.clicks())
	}
	return st, b.checkDemand("tsv replay", sa)
}

// writeSeg is `clicklog gen -format seg`.
func (b *clicklogBench) writeSeg(pc demand.PipelineConfig) error {
	fw, err := seg.CreateFile(b.segPath(), 0, clickSync)
	if err != nil {
		return err
	}
	if err := demand.GenerateOrderedRefs(b.cat, b.sim, pc, fw.Add); err != nil {
		fw.Abort()
		return err
	}
	return fw.Close()
}

// writeTSV is `clicklog gen -format tsv`.
func (b *clicklogBench) writeTSV(pc demand.PipelineConfig) error {
	af, err := fsx.CreateAtomic(b.tsvPath(), clickSync)
	if err != nil {
		return err
	}
	w := logs.NewWriter(af)
	err = demand.GenerateOrdered(b.cat, b.sim, pc, w.Write)
	if err == nil {
		err = w.Flush()
	}
	if err != nil {
		af.Abort()
		return err
	}
	return af.Commit()
}

// newAggregator is the replay fold `clicklog agg -cookies` sets up.
func (b *clicklogBench) newAggregator(shards int) *demand.ShardedAggregator {
	sa := demand.NewShardedAggregator(b.cat, shards)
	sa.SetCookieHint(b.sim.Cookies)
	return sa
}

// replaySeg is `clicklog agg` on the segment file.
func (b *clicklogBench) replaySeg(pred seg.Predicate, shards int) (*demand.ShardedAggregator, seg.ReplayStats, error) {
	r, err := seg.OpenFile(b.segPath())
	if err != nil {
		return nil, seg.ReplayStats{}, err
	}
	defer r.Close()
	sa := b.newAggregator(shards)
	emit, done := sa.FeedRefs()
	rs, err := r.Replay(pred, emit)
	done()
	return sa, rs, err
}

// replayTSV is `clicklog agg -strict` on the TSV log.
func (b *clicklogBench) replayTSV(shards int) (*demand.ShardedAggregator, error) {
	f, err := os.Open(b.tsvPath())
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sa := b.newAggregator(shards)
	emit, done := sa.Feed()
	defer done()
	r := logs.NewReader(f)
	for {
		c, err := r.Next()
		if errors.Is(err, io.EOF) {
			return sa, nil
		}
		if err != nil {
			return nil, err
		}
		emit(c)
	}
}

func (b *clicklogBench) checkDemand(stage string, sa *demand.ShardedAggregator) error {
	if got := demandDigest(sa); got != b.ref {
		return fmt.Errorf("%s: demand digest %x differs from the live pipeline's %x", stage, got[:8], b.ref[:8])
	}
	return nil
}

// demandDigest is the SHA-256 of every entity's visits and distinct
// cookies for both sources.
func demandDigest(sa *demand.ShardedAggregator) [32]byte {
	h := sha256.New()
	var buf [16]byte
	for _, src := range []logs.Source{logs.Search, logs.Browse} {
		for _, e := range sa.Demand(src) {
			binary.LittleEndian.PutUint64(buf[:8], uint64(e.Visits))
			binary.LittleEndian.PutUint64(buf[8:], uint64(e.UniqueCookies))
			h.Write(buf[:])
		}
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}
