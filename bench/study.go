package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/report"
)

// studyConfig is the configuration `analyze -scale small` builds at
// full size; workers 0 means GOMAXPROCS, as analyze's default.
func studyConfig(sz sizes, seed uint64, extraction bool, workers int) core.Config {
	return core.Config{
		Seed:           seed,
		Entities:       sz.entities,
		DirectoryHosts: sz.dirHosts,
		CatalogN:       sz.catalogN,
		UseExtraction:  extraction,
		Workers:        workers,
	}
}

// studyBench builds every measured op on a new config seed, because
// build cost depends strongly on the seed — Table 2's exact diameters
// alone take 45–323 ms across seeds at small scale, and whole builds are
// bimodal across seeds — so a run's median is steady only over as many
// configurations as it can build. After the measured window, verify
// rebuilds the first and the last of them: each must reproduce its
// report.
type studyBench struct {
	sz         sizes
	seed       uint64
	extraction bool
	digests    map[int][32]byte // report digest per op index
}

// prepareStudy's set-up is one cold RunAll, paying the process's lazy
// initialization before the measured ops. It builds one fixed
// configuration, not one derived from --seed, so that set-up time does
// not swing with the seed.
func prepareStudy(extraction bool) func(p params) (bench, []time.Duration, error) {
	return func(p params) (bench, []time.Duration, error) {
		var setups []time.Duration
		cfg := studyConfig(p.sz, derive(0, "study-setup", 0), extraction, 0)
		for i := 0; i < p.setupReps; i++ {
			runtime.GC()
			t0 := time.Now()
			if _, err := core.NewStudy(cfg).RunAll(context.Background(), 0); err != nil {
				return nil, nil, err
			}
			setups = append(setups, time.Since(t0))
		}
		return &studyBench{sz: p.sz, seed: p.seed, extraction: extraction, digests: map[int][32]byte{}}, setups, nil
	}
}

func (b *studyBench) config(i int) core.Config {
	return studyConfig(b.sz, derive(b.seed, "study", i), b.extraction, 0)
}

// build runs one cold study — every artifact and experiment, as
// `analyze -exp all` does — on a fresh Study, returning the time of the
// build alone and the report's digest.
func (b *studyBench) build(i int) (time.Duration, [32]byte, error) {
	t0 := time.Now()
	st := core.NewStudy(b.config(i))
	rep, err := st.RunAll(context.Background(), 0)
	d := time.Since(t0)
	if err != nil {
		return d, [32]byte{}, err
	}
	sum, err := envelopeDigest(st, rep)
	return d, sum, err
}

func (b *studyBench) op(_, i int) (time.Duration, error) {
	d, sum, err := b.build(i)
	if err == nil {
		b.digests[i] = sum
	}
	return d, err
}

func (b *studyBench) verify() []error {
	ops := slices.Sorted(maps.Keys(b.digests))
	if len(ops) == 0 {
		return nil
	}
	check := []int{ops[0]}
	if last := ops[len(ops)-1]; last != ops[0] {
		check = append(check, last)
	}
	var errs []error
	for _, i := range check {
		_, got, err := b.build(i)
		if want := b.digests[i]; err == nil && got != want {
			err = fmt.Errorf("seed %d: rebuilt report digest %x differs from the measured build's %x", b.config(i).Seed, got[:8], want[:8])
		}
		if err != nil {
			errs = append(errs, err)
		}
	}
	return errs
}

func (b *studyBench) close() error { return nil }

// envelopeDigest is the SHA-256 of the report.WriteJSON document of rep.
func envelopeDigest(st *core.Study, rep *core.RunReport) ([32]byte, error) {
	var buf bytes.Buffer
	if err := report.WriteJSON(&buf, st, rep); err != nil {
		return [32]byte{}, err
	}
	return bodyDigest(buf.Bytes(), true)
}

// bodyDigest is the SHA-256 of a response or report body. For a
// repro/v1 envelope (experiment=true) it first zeroes each result's
// elapsed_ms: that field reports how long the build took, so two builds
// of one configuration differ there and nowhere else.
func bodyDigest(body []byte, experiment bool) ([32]byte, error) {
	if !experiment {
		return sha256.Sum256(body), nil
	}
	var env report.Envelope
	if err := json.Unmarshal(body, &env); err != nil {
		return [32]byte{}, fmt.Errorf("decode report envelope: %w", err)
	}
	for i := range env.Results {
		env.Results[i].ElapsedMS = 0
	}
	canon, err := json.Marshal(env)
	if err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(canon), nil
}
