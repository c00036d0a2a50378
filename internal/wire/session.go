package wire

import "encoding/binary"

// Session-resilience messages: heartbeats that detect dead peers in
// either direction, and the ticket/reattach pair that lets a client
// whose transport dropped resume its session (the server answers a
// valid Reattach with a full-screen RAW resync).

// ProtoVersion is the protocol revision, carried in ServerInit. Every
// hello (ClientInit, Reattach, SessionTicket, ServerInit) has a fixed
// layout in which every field is mandatory, and a client refuses a
// ServerInit naming any other revision. Receivers still skip
// well-framed message types they do not know. A reattach with
// CacheEpoch 0 never claims a warm cache: server epochs start at 1.
const ProtoVersion = 7

// MaxTicketLen bounds a session ticket on the wire.
const MaxTicketLen = 64

// Ping is a liveness probe. Either side may send one; the receiver
// echoes Seq and TimeUS back in a Pong. The server sends them on its
// heartbeat cadence; any traffic (not just Pong) proves the peer live.
type Ping struct {
	Seq    uint32
	TimeUS uint64 // sender clock, microseconds (echoed for RTT)
}

// Type implements Message.
func (m *Ping) Type() Type { return TPing }

// PayloadSize implements Message: seq 4 + time 8.
func (m *Ping) PayloadSize() int { return 12 }

func (m *Ping) appendPayload(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, m.Seq)
	return binary.BigEndian.AppendUint64(dst, m.TimeUS)
}

func decodePing(d *decoder) (*Ping, error) {
	m := &Ping{}
	m.Seq = d.u32()
	m.TimeUS = d.u64()
	return m, d.check()
}

// Pong answers a Ping, echoing its fields.
type Pong struct {
	Seq    uint32
	TimeUS uint64
}

// Type implements Message.
func (m *Pong) Type() Type { return TPong }

// PayloadSize implements Message: seq 4 + time 8.
func (m *Pong) PayloadSize() int { return 12 }

func (m *Pong) appendPayload(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, m.Seq)
	return binary.BigEndian.AppendUint64(dst, m.TimeUS)
}

func decodePong(d *decoder) (*Pong, error) {
	m := &Pong{}
	m.Seq = d.u32()
	m.TimeUS = d.u64()
	return m, d.check()
}

// SessionTicket is pushed by the server right after ServerInit: an
// opaque credential the client stores and presents in a Reattach to
// resume this session after a transport failure. Each (re)attach
// issues a fresh ticket; presenting one invalidates it. Role echoes
// the role the server granted, so a reconnecting viewer resumes as a
// viewer. CacheEpoch is the payload-cache generation stamp: the client
// echoes it in a later Reattach to prove its in-memory store belongs
// to the server's retained cache model. Server epochs start at 1, so 0
// never matches.
type SessionTicket struct {
	Ticket     []byte
	Role       uint8
	CacheEpoch uint64
}

// Type implements Message.
func (m *SessionTicket) Type() Type { return TSessionTicket }

// PayloadSize implements Message: ticket len 2 + ticket + role 1 +
// cache epoch 8.
func (m *SessionTicket) PayloadSize() int { return 11 + len(m.Ticket) }

func (m *SessionTicket) appendPayload(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(m.Ticket)))
	dst = append(dst, m.Ticket...)
	dst = append(dst, m.Role)
	return binary.BigEndian.AppendUint64(dst, m.CacheEpoch)
}

func decodeSessionTicket(d *decoder) (*SessionTicket, error) {
	m := &SessionTicket{}
	n := int(d.u16())
	if n > MaxTicketLen {
		d.fail()
		return m, d.check()
	}
	m.Ticket = d.bytes(n)
	m.Role = d.u8()
	m.CacheEpoch = d.u64()
	return m, d.check()
}

// Reattach replaces ClientInit in the handshake of a reconnecting
// client: the ticket identifies the detached session to resume. The
// viewport rides along because it may have changed while disconnected.
// A server that cannot honor the ticket (expired, unknown, or still
// attached) falls back to a fresh attach — either way the client
// converges via the full-screen RAW resync. Role is the requested
// session role. CacheKB re-requests the payload-cache capacity — the
// server's model of the client cache rides the detached session, so a
// reattach granting the same size resumes hitting without re-warming.
// CacheEpoch echoes the generation stamp from the SessionTicket:
// nonzero means "my store from that generation is intact", and the
// server resumes warm only when the epoch and granted capacity both
// match its retained model.
type Reattach struct {
	Ticket       []byte
	ViewW, ViewH int
	Name         string
	Role         uint8
	CacheKB      uint32
	CacheEpoch   uint64
}

// Type implements Message.
func (m *Reattach) Type() Type { return TReattach }

// PayloadSize implements Message: ticket len 2 + ticket + viewport 4 +
// name len 2 + name + role 1 + cache kb 4 + cache epoch 8.
func (m *Reattach) PayloadSize() int { return 21 + len(m.Ticket) + len(m.Name) }

func (m *Reattach) appendPayload(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(m.Ticket)))
	dst = append(dst, m.Ticket...)
	dst = binary.BigEndian.AppendUint16(dst, uint16(m.ViewW))
	dst = binary.BigEndian.AppendUint16(dst, uint16(m.ViewH))
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(m.Name)))
	dst = append(dst, m.Name...)
	dst = append(dst, m.Role)
	dst = binary.BigEndian.AppendUint32(dst, m.CacheKB)
	return binary.BigEndian.AppendUint64(dst, m.CacheEpoch)
}

func decodeReattach(d *decoder) (*Reattach, error) {
	m := &Reattach{}
	n := int(d.u16())
	if n > MaxTicketLen {
		d.fail()
		return m, d.check()
	}
	m.Ticket = d.bytes(n)
	m.ViewW = int(d.u16())
	m.ViewH = int(d.u16())
	n = int(d.u16())
	m.Name = string(d.bytes(n))
	m.Role = d.u8()
	m.CacheKB = d.u32()
	m.CacheEpoch = d.u64()
	return m, d.check()
}

// AttachBusy answers a handshake the reattach-storm admission gate
// refused: too many full resyncs are already in flight, so the
// server declines this attach instead of letting N reconnecting
// clients saturate the flush path. RetryAfterMS is the jittered delay
// the client should wait before redialing — honoring it drains a storm
// in bounded waves. The connection closes after this message.
type AttachBusy struct {
	RetryAfterMS uint32
}

// Type implements Message.
func (m *AttachBusy) Type() Type { return TAttachBusy }

// PayloadSize implements Message: retry-after 4.
func (m *AttachBusy) PayloadSize() int { return 4 }

func (m *AttachBusy) appendPayload(dst []byte) []byte {
	return binary.BigEndian.AppendUint32(dst, m.RetryAfterMS)
}

func decodeAttachBusy(d *decoder) (*AttachBusy, error) {
	m := &AttachBusy{}
	m.RetryAfterMS = d.u32()
	return m, d.check()
}
