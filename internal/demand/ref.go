package demand

import "repro/internal/logs"

// ClickRef is the pipeline's internal click representation: the entity
// by catalog index plus the raw (source, cookie, day) draw — no strings
// anywhere. The generator produces refs, the router hashes the entity
// index, and the aggregator folds the index directly, so the
// generation → routing → aggregation path never formats or parses a
// URL. Click materializes the wire representation at the serialization
// boundary (log files, GenerateOrdered); logs.EntityURL/ParseEntityURL
// remain the pinned inverse pair there.
//
// The struct is 16 bytes — a third of logs.Click — so batches moving
// between pipeline stages carry a third of the memory traffic.
type ClickRef struct {
	// Cookie is the anonymized user, as in logs.Click.
	Cookie uint64
	// Entity indexes Catalog.Entities.
	Entity int32
	// Day is the 0-based day within the log year.
	Day int16
	// Src indexes sources: 0 search, 1 browse.
	Src uint8
}

// numSources is len(sources) as an array-length constant.
const numSources = 2

// srcIdx maps a wire source to its ClickRef.Src index (the position in
// sources), or -1 for an unknown source.
func srcIdx(s logs.Source) int {
	switch s {
	case logs.Search:
		return 0
	case logs.Browse:
		return 1
	}
	return -1
}

// SourceIndex maps a wire source to its ClickRef.Src value (the
// position in the canonical source order), false for unknown sources —
// the exported face of srcIdx for consumers building segment-store
// pushdown predicates.
func SourceIndex(s logs.Source) (uint8, bool) {
	if i := srcIdx(s); i >= 0 {
		return uint8(i), true
	}
	return 0, false
}

// Click materializes the wire representation of r against its catalog.
// The URL is the catalog's canonical entity URL, the one string
// ShardedAggregator.Feed resolves with a single interned-map hit.
func (r ClickRef) Click(cat *Catalog) logs.Click {
	return logs.Click{
		Source: sources[r.Src],
		Cookie: r.Cookie,
		Day:    int(r.Day),
		URL:    cat.Entities[r.Entity].URL,
	}
}
