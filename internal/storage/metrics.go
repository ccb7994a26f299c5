package storage

import "mstsearch/internal/obs"

// Process-wide buffer-pool metrics. Handles resolve once at init and each
// pool operation costs at most one extra atomic add per counter touched —
// the hot paths stay allocation-free.
var metPool = struct {
	hits, misses, retries, evictions *obs.Counter
}{
	hits:      obs.Default.Counter("storage.pool.striped.hits"),
	misses:    obs.Default.Counter("storage.pool.striped.misses"),
	retries:   obs.Default.Counter("storage.pool.striped.retries"),
	evictions: obs.Default.Counter("storage.pool.striped.evictions"),
}
