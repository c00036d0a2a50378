package wire

import (
	"encoding/binary"

	"thinc/internal/pixel"
)

// ServerInit is the server's hello: the protocol revision it speaks,
// the session's true framebuffer geometry and native pixel format. The
// client may view it at a different size (see Resize and §6). CacheKB
// is the payload-cache capacity the server granted — min(client
// request, server cap), 0 = cache disabled. Both sides size their LRU
// to the granted value, so the deterministic-eviction invariant starts
// from a shared number. CacheWarm is the server's explicit verdict on
// a warm-resume claim: 1 means the retained cache model was accepted
// and the client must keep its store byte-for-byte; 0 means the client
// must reset the store even if it kept one, so the two LRUs never
// diverge silently.
type ServerInit struct {
	Ver       uint8 // protocol revision (ProtoVersion)
	W, H      int
	Format    pixel.Format
	CacheKB   uint32
	CacheWarm uint8
}

// Type implements Message.
func (m *ServerInit) Type() Type { return TServerInit }

// PayloadSize implements Message: ver 1 + geometry 4 + format 1 +
// cache kb 4 + cache warm 1.
func (m *ServerInit) PayloadSize() int { return 11 }

func (m *ServerInit) appendPayload(dst []byte) []byte {
	dst = append(dst, m.Ver)
	dst = binary.BigEndian.AppendUint16(dst, uint16(m.W))
	dst = binary.BigEndian.AppendUint16(dst, uint16(m.H))
	dst = append(dst, byte(m.Format))
	dst = binary.BigEndian.AppendUint32(dst, m.CacheKB)
	return append(dst, m.CacheWarm)
}

func decodeServerInit(d *decoder) (*ServerInit, error) {
	m := &ServerInit{}
	m.Ver = d.u8()
	m.W = int(d.u16())
	m.H = int(d.u16())
	m.Format = pixel.Format(d.u8())
	m.CacheKB = d.u32()
	m.CacheWarm = d.u8()
	return m, d.check()
}

// Session roles carried in the attach handshake. An owner drives the
// session (input is injected into the display); a viewer receives the
// same broadcast update stream but its input is discarded — the
// one-to-many screen-share attach.
const (
	RoleOwner  uint8 = 0
	RoleViewer uint8 = 1
)

// RoleName returns a human-readable role label.
func RoleName(role uint8) string {
	if role == RoleViewer {
		return "viewer"
	}
	return "owner"
}

// ClientInit is the client's hello: its viewport size (which may be
// smaller than the session framebuffer — the PDA case), a display
// name for logging, the requested session role, and the requested
// payload-cache capacity in kilobytes (0 = no cache), which the server
// clamps to its own cap and echoes in ServerInit.
type ClientInit struct {
	ViewW, ViewH int
	Name         string
	Role         uint8
	CacheKB      uint32
}

// Type implements Message.
func (m *ClientInit) Type() Type { return TClientInit }

// PayloadSize implements Message: viewport 4 + name len 2 + name +
// role 1 + cache kb 4.
func (m *ClientInit) PayloadSize() int { return 11 + len(m.Name) }

func (m *ClientInit) appendPayload(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(m.ViewW))
	dst = binary.BigEndian.AppendUint16(dst, uint16(m.ViewH))
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(m.Name)))
	dst = append(dst, m.Name...)
	dst = append(dst, m.Role)
	return binary.BigEndian.AppendUint32(dst, m.CacheKB)
}

func decodeClientInit(d *decoder) (*ClientInit, error) {
	m := &ClientInit{}
	m.ViewW = int(d.u16())
	m.ViewH = int(d.u16())
	n := int(d.u16())
	m.Name = string(d.bytes(n))
	m.Role = d.u8()
	m.CacheKB = d.u32()
	return m, d.check()
}

// Resize tells the server the client viewport changed; subsequent
// updates are scaled server-side to the new geometry (§6).
type Resize struct {
	ViewW, ViewH int
}

// Type implements Message.
func (m *Resize) Type() Type { return TResize }

// PayloadSize implements Message: viewport 4.
func (m *Resize) PayloadSize() int { return 4 }

func (m *Resize) appendPayload(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(m.ViewW))
	return binary.BigEndian.AppendUint16(dst, uint16(m.ViewH))
}

func decodeResize(d *decoder) (*Resize, error) {
	m := &Resize{}
	m.ViewW = int(d.u16())
	m.ViewH = int(d.u16())
	return m, d.check()
}

// InputKind distinguishes input events.
type InputKind uint8

// Input event kinds.
const (
	InputMouseMove InputKind = iota
	InputMouseButton
	InputKey
)

// Input is a user input event forwarded from client to server. Mouse
// coordinates are in *server* framebuffer space; a scaled client maps
// them back before sending.
type Input struct {
	Kind   InputKind
	X, Y   int
	Code   uint16 // button number or key code
	Press  bool
	TimeUS uint64 // client timestamp, microseconds
}

// Type implements Message.
func (m *Input) Type() Type { return TInput }

// PayloadSize implements Message: kind 1 + x 2 + y 2 + code 2 + press
// 1 + time 8.
func (m *Input) PayloadSize() int { return 16 }

func (m *Input) appendPayload(dst []byte) []byte {
	dst = append(dst, byte(m.Kind))
	dst = binary.BigEndian.AppendUint16(dst, uint16(m.X))
	dst = binary.BigEndian.AppendUint16(dst, uint16(m.Y))
	dst = binary.BigEndian.AppendUint16(dst, m.Code)
	var b byte
	if m.Press {
		b = 1
	}
	dst = append(dst, b)
	return binary.BigEndian.AppendUint64(dst, m.TimeUS)
}

func decodeInput(d *decoder) (*Input, error) {
	m := &Input{}
	m.Kind = InputKind(d.u8())
	m.X = int(d.u16())
	m.Y = int(d.u16())
	m.Code = d.u16()
	m.Press = d.u8()&1 != 0
	m.TimeUS = d.u64()
	return m, d.check()
}

// AuthChallenge starts PAM-style authentication: the server sends a
// nonce the client must prove knowledge of the account (or session
// share) secret against.
type AuthChallenge struct {
	Nonce []byte
}

// Type implements Message.
func (m *AuthChallenge) Type() Type { return TAuthChallenge }

// PayloadSize implements Message: nonce len 2 + nonce.
func (m *AuthChallenge) PayloadSize() int { return 2 + len(m.Nonce) }

func (m *AuthChallenge) appendPayload(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(m.Nonce)))
	return append(dst, m.Nonce...)
}

func decodeAuthChallenge(d *decoder) (*AuthChallenge, error) {
	m := &AuthChallenge{}
	n := int(d.u16())
	m.Nonce = d.bytes(n)
	return m, d.check()
}

// AuthResponse carries the username and the challenge proof.
type AuthResponse struct {
	User  string
	Proof []byte
}

// Type implements Message.
func (m *AuthResponse) Type() Type { return TAuthResponse }

// PayloadSize implements Message: user len 2 + user + proof len 2 +
// proof.
func (m *AuthResponse) PayloadSize() int { return 4 + len(m.User) + len(m.Proof) }

func (m *AuthResponse) appendPayload(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(m.User)))
	dst = append(dst, m.User...)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(m.Proof)))
	return append(dst, m.Proof...)
}

func decodeAuthResponse(d *decoder) (*AuthResponse, error) {
	m := &AuthResponse{}
	n := int(d.u16())
	m.User = string(d.bytes(n))
	n = int(d.u16())
	m.Proof = d.bytes(n)
	return m, d.check()
}

// AuthResult reports authentication success or failure.
type AuthResult struct {
	OK     bool
	Reason string
}

// Type implements Message.
func (m *AuthResult) Type() Type { return TAuthResult }

// PayloadSize implements Message: ok 1 + reason len 2 + reason.
func (m *AuthResult) PayloadSize() int { return 3 + len(m.Reason) }

func (m *AuthResult) appendPayload(dst []byte) []byte {
	var b byte
	if m.OK {
		b = 1
	}
	dst = append(dst, b)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(m.Reason)))
	return append(dst, m.Reason...)
}

func decodeAuthResult(d *decoder) (*AuthResult, error) {
	m := &AuthResult{}
	m.OK = d.u8()&1 != 0
	n := int(d.u16())
	m.Reason = string(d.bytes(n))
	return m, d.check()
}

// UpdateRequest is a client-pull update solicitation. THINC itself is
// server-push and never sends these; the message exists for the
// client-pull ablation and the VNC-class baselines (§5, §8).
type UpdateRequest struct {
	Incremental bool
}

// Type implements Message.
func (m *UpdateRequest) Type() Type { return TUpdateRequest }

// PayloadSize implements Message: incremental flag 1.
func (m *UpdateRequest) PayloadSize() int { return 1 }

func (m *UpdateRequest) appendPayload(dst []byte) []byte {
	var b byte
	if m.Incremental {
		b = 1
	}
	return append(dst, b)
}

func decodeUpdateRequest(d *decoder) (*UpdateRequest, error) {
	m := &UpdateRequest{}
	m.Incremental = d.u8()&1 != 0
	return m, d.check()
}
