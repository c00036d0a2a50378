package wire

import "encoding/binary"

// Integrity-audit messages (protocol v4). The server shards the session
// framebuffer into fixed square tiles and keeps an incrementally
// maintained FNV-1a 64 digest per tile; an AuditProbe asks the client
// to digest a window of *its* tiles the same way and answer with an
// AuditReply. Mismatched tiles are healed with targeted RAW repairs
// through the normal scheduler — the chaos oracle's byte-identical
// invariant, moved into the runtime. A peer that stops replying can no
// longer be verified and is resynced.

// MaxAuditTiles bounds the tile window of one probe or reply. It keeps
// a reply under 32 KiB and makes hostile Count fields cheap to reject.
const MaxAuditTiles = 4096

// AuditProbe asks the client to digest the tiles [Start, Start+Count)
// of its framebuffer, tiled row-major into Tile x Tile squares (ragged
// at the right/bottom edges), and echo Seq back in an AuditReply. The
// server only probes a client settled at the lossless rung with an
// empty send queue, so the client's screen at probe receipt is exactly
// the server's screen at probe emission.
type AuditProbe struct {
	Seq   uint32 // probe sequence, echoed by the reply
	Tile  uint16 // tile side in pixels
	Start uint32 // first tile index of the window
	Count uint16 // number of tiles to digest (<= MaxAuditTiles)
}

// Type implements Message.
func (m *AuditProbe) Type() Type { return TAuditProbe }

// PayloadSize implements Message: seq 4 + tile 2 + start 4 + count 2.
func (m *AuditProbe) PayloadSize() int { return 12 }

func (m *AuditProbe) appendPayload(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, m.Seq)
	dst = binary.BigEndian.AppendUint16(dst, m.Tile)
	dst = binary.BigEndian.AppendUint32(dst, m.Start)
	return binary.BigEndian.AppendUint16(dst, m.Count)
}

func decodeAuditProbe(d *decoder) (*AuditProbe, error) {
	m := &AuditProbe{}
	m.Seq = d.u32()
	m.Tile = d.u16()
	m.Start = d.u32()
	m.Count = d.u16()
	if m.Tile == 0 || int(m.Count) > MaxAuditTiles {
		d.fail()
	}
	return m, d.check()
}

// AuditReply answers an AuditProbe with the requested tile digests. W
// and H echo the client framebuffer geometry the digests were computed
// over, so the server can discard a reply raced by a resize instead of
// misreading it as corruption. Count is the number of digests and must
// match the trailing array exactly.
type AuditReply struct {
	Seq     uint32 // echoed probe sequence
	Start   uint32 // first tile index digested
	W, H    uint16 // client framebuffer geometry at digest time
	Count   uint16 // len(Digests) (<= MaxAuditTiles)
	Digests []uint64
}

// Type implements Message.
func (m *AuditReply) Type() Type { return TAuditReply }

// PayloadSize implements Message: seq 4 + start 4 + geometry 4 + count
// 2 + 8 bytes per digest.
func (m *AuditReply) PayloadSize() int { return 14 + 8*len(m.Digests) }

func (m *AuditReply) appendPayload(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, m.Seq)
	dst = binary.BigEndian.AppendUint32(dst, m.Start)
	dst = binary.BigEndian.AppendUint16(dst, m.W)
	dst = binary.BigEndian.AppendUint16(dst, m.H)
	dst = binary.BigEndian.AppendUint16(dst, m.Count)
	for _, v := range m.Digests {
		dst = binary.BigEndian.AppendUint64(dst, v)
	}
	return dst
}

func decodeAuditReply(d *decoder) (*AuditReply, error) {
	m := &AuditReply{}
	m.Seq = d.u32()
	m.Start = d.u32()
	m.W = d.u16()
	m.H = d.u16()
	m.Count = d.u16()
	if int(m.Count) > MaxAuditTiles || d.remaining() != 8*int(m.Count) {
		d.fail()
		return m, d.check()
	}
	if m.Count > 0 {
		m.Digests = make([]uint64, m.Count)
		for i := range m.Digests {
			m.Digests[i] = d.u64()
		}
	}
	return m, d.check()
}
