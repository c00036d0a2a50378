package wire

import (
	"encoding/binary"
	"io"
	"net"
	"sync"
	"sync/atomic"
)

// Encode-buffer pool. The flush paths (server delivery pump, client send,
// WriteMessage) borrow a buffer, frame into it, write once, and return
// it. Ownership rule: whoever calls GetBuffer calls PutBuffer, and only
// after the transport write has fully completed — the transport may
// read the slice during Write but never retains it.

// maxPooledBuffer caps the capacity a returned buffer may retain, so a
// one-off full-screen update does not pin megabytes in the pool
// forever. Larger buffers are dropped for the GC.
const maxPooledBuffer = 1 << 20

var bufPool = sync.Pool{
	New: func() any {
		encStats.poolMisses.Add(1)
		b := make([]byte, 0, 4096)
		return &b
	},
}

// GetBuffer borrows an empty encode buffer from the pool.
func GetBuffer() *[]byte {
	encStats.poolGets.Add(1)
	return bufPool.Get().(*[]byte)
}

// PutBuffer returns a buffer obtained from GetBuffer. The caller must
// not touch the slice afterwards.
func PutBuffer(b *[]byte) {
	if b == nil || cap(*b) > maxPooledBuffer {
		return
	}
	*b = (*b)[:0]
	bufPool.Put(b)
}

// encStats counts pool and vectored-write activity since process
// start. Package wire stays dependency-free; the server registers
// these through telemetry.CounterFunc.
var encStats struct {
	poolGets       atomic.Int64
	poolMisses     atomic.Int64
	vectoredWrites atomic.Int64
	vectoredBytes  atomic.Int64
}

// EncoderStats is a snapshot of the encode fast path's pool and
// vectored-write counters.
type EncoderStats struct {
	// PoolGets counts GetBuffer calls; PoolMisses counts the subset
	// that had to allocate. Hits = Gets - Misses.
	PoolGets   int64 `json:"pool_gets"`
	PoolMisses int64 `json:"pool_misses"`
	// VectoredWrites counts message slabs written by reference instead
	// of being copied into the batch buffer; VectoredBytes is the pixel
	// bytes that skipped the copy.
	VectoredWrites int64 `json:"vectored_writes"`
	VectoredBytes  int64 `json:"vectored_bytes"`
}

// Stats returns the current encode fast-path counters.
func Stats() EncoderStats {
	return EncoderStats{
		PoolGets:       encStats.poolGets.Load(),
		PoolMisses:     encStats.poolMisses.Load(),
		VectoredWrites: encStats.vectoredWrites.Load(),
		VectoredBytes:  encStats.vectoredBytes.Load(),
	}
}

// VectorThreshold is the slab size above which the batch encoder
// writes the slab by reference (an extra iovec) rather than copying it
// into the contiguous buffer. Below it, the copy is cheaper than the
// per-segment bookkeeping.
const VectorThreshold = 1 << 10

// BuffersWriter is implemented by transports that can consume a
// vectored batch in one call (cipher.StreamConn encrypts all segments
// into one scratch buffer and issues a single underlying Write). Plain
// net.Conn writers get the real writev through net.Buffers instead.
type BuffersWriter interface {
	WriteBuffers(bufs net.Buffers) (int64, error)
}

// batchSeg is either a span [start,end) of the batch's contiguous
// buffer (slab == nil) or a by-reference payload slab.
type batchSeg struct {
	start, end int
	slab       []byte
}

// Batch frames a sequence of messages for a single vectored write: one
// pooled contiguous buffer holds every header, metadata block, and
// small payload; large pixel slabs are referenced in place. A flush
// becomes one WriteTo instead of one Write per message.
//
// A Batch is not safe for concurrent use. The caller must not mutate
// or recycle appended messages' slabs until WriteTo returns.
type Batch struct {
	buf     *[]byte
	segs    []batchSeg
	open    bool // last seg is a growable buffer span
	msgs    int
	bytes   int64
	scratch net.Buffers
}

// NewBatch returns a Batch backed by a pooled buffer. Call Release
// when done with it.
func NewBatch() *Batch {
	return &Batch{buf: GetBuffer()}
}

// Append frames m into the batch.
func (b *Batch) Append(m Message) error {
	n := m.PayloadSize()
	if n > MaxPayload {
		return ErrTooLarge
	}
	buf := *b.buf
	start := len(buf)
	buf = append(buf, byte(m.Type()))
	buf = binary.BigEndian.AppendUint32(buf, uint32(n))
	if sm, ok := m.(slabMessage); ok {
		if slab := sm.payloadSlab(); len(slab) >= VectorThreshold {
			buf = sm.appendPayloadMeta(buf)
			*b.buf = buf
			b.extendSpan(start, len(buf))
			b.segs = append(b.segs, batchSeg{slab: slab})
			b.open = false
			encStats.vectoredWrites.Add(1)
			encStats.vectoredBytes.Add(int64(len(slab)))
			b.msgs++
			b.bytes += int64(HeaderSize + n)
			return nil
		}
	}
	buf = m.appendPayload(buf)
	*b.buf = buf
	b.extendSpan(start, len(buf))
	b.msgs++
	b.bytes += int64(HeaderSize + n)
	return nil
}

// extendSpan records [start,end) of the contiguous buffer, merging
// into the previous span when it is still growing. Offsets are
// resolved to slices only at write time because appends may move the
// buffer.
func (b *Batch) extendSpan(start, end int) {
	if b.open {
		b.segs[len(b.segs)-1].end = end
		return
	}
	b.segs = append(b.segs, batchSeg{start: start, end: end})
	b.open = true
}

// Len is the total framed bytes queued in the batch.
func (b *Batch) Len() int64 { return b.bytes }

// Msgs is the number of messages queued in the batch.
func (b *Batch) Msgs() int { return b.msgs }

// Empty reports whether the batch holds no messages.
func (b *Batch) Empty() bool { return b.msgs == 0 }

// WriteTo writes the whole batch to w: one plain Write when everything
// is contiguous, otherwise one vectored write (BuffersWriter if w
// implements it, else net.Buffers — a real writev on a net.Conn). The
// batch still holds the data afterwards; call Reset to reuse it.
func (b *Batch) WriteTo(w io.Writer) (int64, error) {
	if b.msgs == 0 {
		return 0, nil
	}
	buf := *b.buf
	if len(b.segs) == 1 && b.segs[0].slab == nil {
		n, err := w.Write(buf[b.segs[0].start:b.segs[0].end])
		return int64(n), err
	}
	bufs := b.scratch[:0]
	for _, s := range b.segs {
		if s.slab != nil {
			bufs = append(bufs, s.slab)
		} else {
			bufs = append(bufs, buf[s.start:s.end])
		}
	}
	var n int64
	var err error
	if bw, ok := w.(BuffersWriter); ok {
		n, err = bw.WriteBuffers(bufs)
	} else {
		// net.Buffers.WriteTo consumes its receiver, so point the batch's
		// scratch field at the segments (a field receiver does not escape
		// like a local would) and restore it from bufs afterwards.
		b.scratch = bufs
		n, err = b.scratch.WriteTo(w)
	}
	for i := range bufs {
		bufs[i] = nil // drop slab refs so the GC can reclaim pixel data
	}
	b.scratch = bufs[:0]
	return n, err
}

// Reset clears the batch for reuse, keeping its buffer.
func (b *Batch) Reset() {
	*b.buf = (*b.buf)[:0]
	for i := range b.segs {
		b.segs[i].slab = nil
	}
	b.segs = b.segs[:0]
	b.open = false
	b.msgs = 0
	b.bytes = 0
}

// Release returns the batch's buffer to the pool. The batch must not
// be used afterwards.
func (b *Batch) Release() {
	if b.buf != nil {
		PutBuffer(b.buf)
		b.buf = nil
	}
	b.segs = nil
	b.scratch = nil
}
