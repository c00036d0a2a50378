// Package cipher provides the RC4 stream cipher THINC uses to encrypt
// all protocol traffic (§7). RC4 is implemented from scratch here; it is
// kept for fidelity to the paper — it is NOT a recommendation of RC4 for
// new systems. The package also provides an io.Reader/io.Writer pair
// that transparently encrypts a transport stream.
package cipher

import (
	"errors"
	"io"
	"net"
)

// RC4 is the classic Rivest stream cipher state: a 256-byte permutation
// plus two indices. Identical key and direction on both ends keeps the
// keystreams in lockstep.
type RC4 struct {
	s    [256]byte
	i, j uint8
}

// ErrShortKey is returned for keys outside RC4's 1..256 byte range.
var ErrShortKey = errors.New("cipher: RC4 key must be 1..256 bytes")

// NewRC4 runs the key-scheduling algorithm over key.
func NewRC4(key []byte) (*RC4, error) {
	if len(key) < 1 || len(key) > 256 {
		return nil, ErrShortKey
	}
	c := &RC4{}
	for i := 0; i < 256; i++ {
		c.s[i] = byte(i)
	}
	var j byte
	for i := 0; i < 256; i++ {
		j += c.s[i] + key[i%len(key)]
		c.s[i], c.s[j] = c.s[j], c.s[i]
	}
	return c, nil
}

// XORKeyStream XORs src with the keystream into dst (dst may alias src).
func (c *RC4) XORKeyStream(dst, src []byte) {
	if len(dst) < len(src) {
		panic("cipher: output smaller than input")
	}
	s := &c.s
	i, j := c.i, c.j
	for k, b := range src {
		i++
		x := s[i]
		j += x
		y := s[j]
		s[i], s[j] = y, x
		dst[k] = b ^ s[x+y]
	}
	c.i, c.j = i, j
}

// StreamConn wraps a bidirectional stream so that everything written is
// RC4-encrypted and everything read is decrypted. Each direction uses an
// independent keystream derived from the shared key and a direction tag,
// mirroring how the prototype separates client->server and
// server->client traffic.
//
// Writes reuse an internal ciphertext scratch buffer, so — like the
// keystream state itself — a StreamConn supports at most one writer at
// a time.
type StreamConn struct {
	rw   io.ReadWriter
	enc  *RC4
	dec  *RC4
	wbuf []byte // reusable ciphertext scratch for Write/WriteBuffers
}

// NewStreamConn builds an encrypted channel over rw. isServer selects
// which directional keystream encrypts writes; a server and a client
// created with the same key interoperate.
func NewStreamConn(rw io.ReadWriter, key []byte, isServer bool) (*StreamConn, error) {
	s2c, err := NewRC4(deriveKey(key, 'S'))
	if err != nil {
		return nil, err
	}
	c2s, err := NewRC4(deriveKey(key, 'C'))
	if err != nil {
		return nil, err
	}
	sc := &StreamConn{rw: rw}
	if isServer {
		sc.enc, sc.dec = s2c, c2s
	} else {
		sc.enc, sc.dec = c2s, s2c
	}
	return sc, nil
}

// deriveKey appends a direction tag so the two directions never share a
// keystream (reusing an RC4 keystream across directions would be a
// classic two-time pad).
func deriveKey(key []byte, tag byte) []byte {
	k := make([]byte, 0, len(key)+1)
	k = append(k, key...)
	return append(k, tag)
}

func (s *StreamConn) Read(p []byte) (int, error) {
	n, err := s.rw.Read(p)
	s.dec.XORKeyStream(p[:n], p[:n])
	return n, err
}

func (s *StreamConn) Write(p []byte) (int, error) {
	buf := s.scratch(len(p))
	s.enc.XORKeyStream(buf, p)
	return s.rw.Write(buf)
}

// WriteBuffers encrypts every segment of a vectored write into the
// scratch buffer — the keystream is sequential, so segment order is
// the wire order — and issues a single underlying Write. It implements
// wire.BuffersWriter so a batched flush costs one transport write.
func (s *StreamConn) WriteBuffers(bufs net.Buffers) (int64, error) {
	total := 0
	for _, b := range bufs {
		total += len(b)
	}
	if total == 0 {
		return 0, nil
	}
	out := s.scratch(total)
	off := 0
	for _, b := range bufs {
		s.enc.XORKeyStream(out[off:off+len(b)], b)
		off += len(b)
	}
	n, err := s.rw.Write(out)
	return int64(n), err
}

// scratch returns the write buffer grown to n bytes. Buffers beyond
// maxScratch are not retained between writes, so a one-off full-screen
// update does not pin megabytes per connection.
func (s *StreamConn) scratch(n int) []byte {
	const maxScratch = 1 << 20
	if cap(s.wbuf) < n {
		s.wbuf = make([]byte, n)
	}
	buf := s.wbuf[:n]
	if cap(s.wbuf) > maxScratch {
		s.wbuf = nil
	}
	return buf
}
