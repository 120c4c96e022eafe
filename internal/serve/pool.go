package serve

import (
	"segbus/internal/emulator/pool"
	"segbus/internal/obs"
)

// newMachinePool returns an empty pool with the default bounds,
// reporting to the server metric handles (which are nil-safe, so m may
// carry a nil registry).
func newMachinePool(m *obs.ServerMetrics) *pool.Pool {
	return pool.New(pool.Options{
		Hits:     m.PoolHits,
		Misses:   m.PoolMisses,
		Discards: m.PoolDiscards,
	})
}
