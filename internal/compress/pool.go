package compress

import (
	"sync"
	"sync/atomic"
)

// Encoder scratch pooling. RAW codec encodes are the hottest producer
// of garbage in the delivery pipeline: every damaged region becomes a
// freshly allocated payload slice. The pools below let the encode path
// reuse payload buffers, zlib writer state, and PNG row buffers across
// updates.
//
// Ownership rule: a slice from GetScratch is owned by the caller until
// it is handed back with PutScratch. Payloads that become message data
// (wire.Raw.Data) are returned by the delivery layer once the transport
// write completes (core.RecycleMessages); payloads that never reach the
// wire are returned by whoever dropped them.

// maxPooledScratch caps the capacity a returned scratch may retain.
const maxPooledScratch = 1 << 20

var scratchPool = sync.Pool{
	New: func() any {
		scratchStats.misses.Add(1)
		b := make([]byte, 0, 4096)
		return &b
	},
}

var scratchStats struct {
	gets   atomic.Int64
	misses atomic.Int64
	puts   atomic.Int64
}

// GetScratch borrows an empty payload scratch buffer from the pool.
func GetScratch() []byte {
	scratchStats.gets.Add(1)
	bp := scratchPool.Get().(*[]byte)
	b := (*bp)[:0]
	*bp = nil
	ptrPool.Put(bp)
	return b
}

// ptrPool recycles the *[]byte boxes themselves so Get/Put cycles do
// not allocate a fresh header each time.
var ptrPool = sync.Pool{New: func() any { return new([]byte) }}

// PutScratch returns a buffer obtained from GetScratch (possibly grown
// by EncodeAppend). The caller must not touch the slice afterwards.
func PutScratch(b []byte) {
	if b == nil || cap(b) > maxPooledScratch {
		return
	}
	scratchStats.puts.Add(1)
	bp := ptrPool.Get().(*[]byte)
	*bp = b[:0]
	scratchPool.Put(bp)
}

// ScratchStats reports codec scratch pool activity since process
// start: Gets counts GetScratch calls, Misses the subset that had to
// allocate, Puts the buffers handed back.
type ScratchStats struct {
	Gets   int64 `json:"gets"`
	Misses int64 `json:"misses"`
	Puts   int64 `json:"puts"`
}

// PoolStats returns the current codec scratch pool counters.
func PoolStats() ScratchStats {
	return ScratchStats{
		Gets:   scratchStats.gets.Load(),
		Misses: scratchStats.misses.Load(),
		Puts:   scratchStats.puts.Load(),
	}
}

// zlibWriters recycles the PNG writer's zlib.Writer state (the deflate
// window alone is tens of kilobytes) across encodes via Reset.
var zlibWriters sync.Pool
