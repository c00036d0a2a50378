package wire

import (
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"thinc/internal/compress"
	"thinc/internal/geom"
	"thinc/internal/pixel"
)

// Golden wire-conformance vectors: the canonical protocol-v3 encoding
// of every message type, frozen as hex fixtures under testdata/. The
// fixtures are the compatibility contract — a PR that changes any
// byte of an existing encoding fails here and must either revert or
// consciously regenerate the vectors (go test ./internal/wire/
// -run Golden -update) alongside a protocol-version discussion in
// PROTOCOL.md.

var updateGolden = flag.Bool("update", false, "rewrite golden wire vectors under testdata/")

// goldenVector pairs a fixture name with the message whose canonical
// encoding it freezes. Every field is a fixed literal so the encoding
// is reproducible forever; RAW vectors use only the deterministic
// in-repo codecs (none, RLE), never stdlib compressors whose output
// may drift across Go releases.
type goldenVector struct {
	name string
	msg  Message
}

func goldenPix(n int) []pixel.ARGB {
	pix := make([]pixel.ARGB, n)
	for i := range pix {
		pix[i] = pixel.PackARGB(0xff, uint8(i*7), uint8(i*13), uint8(i*29))
	}
	return pix
}

func goldenVectors() []goldenVector {
	rawNone, err := NewRaw(geom.XYWH(10, 20, 4, 3), goldenPix(12), 4, compress.CodecNone)
	if err != nil {
		panic(err)
	}
	rawRLE, err := NewRaw(geom.XYWH(0, 0, 8, 2), append(make([]pixel.ARGB, 8, 16),
		goldenPix(8)...), 8, compress.CodecRLE)
	if err != nil {
		panic(err)
	}
	rawBlend := &Raw{Rect: geom.XYWH(1, 2, 2, 1), Codec: compress.CodecNone,
		Blend: true, Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}}
	return []goldenVector{
		{"raw_none", rawNone},
		{"raw_rle", rawRLE},
		{"raw_blend", rawBlend},
		{"copy", &Copy{Src: geom.XYWH(0, 16, 1024, 752), Dst: geom.Point{X: 0, Y: 0}}},
		{"sfill", &SFill{Rect: geom.XYWH(5, 5, 100, 50), Color: pixel.PackARGB(200, 1, 2, 3)}},
		{"pfill", &PFill{Rect: geom.XYWH(0, 0, 64, 64), TileW: 2, TileH: 2, Ax: 1, Ay: 0,
			Tile: []pixel.ARGB{pixel.RGB(9, 9, 9), pixel.RGB(8, 8, 8),
				pixel.RGB(7, 7, 7), pixel.RGB(6, 6, 6)}}},
		{"bitmap", &Bitmap{Rect: geom.XYWH(3, 3, 9, 2), Fg: pixel.RGB(255, 0, 0),
			Bg: pixel.RGB(0, 0, 255), Transparent: true, BitW: 9, BitH: 2,
			Bits: []byte{0xa5, 0x80, 0x5a, 0x00}}},
		{"video_init", &VideoInit{Stream: 7, Format: pixel.FormatYV12, SrcW: 352, SrcH: 240,
			Dst: geom.XYWH(0, 0, 1024, 768)}},
		{"video_frame", &VideoFrame{Stream: 7, Seq: 42, PTS: 1_000_000, W: 2, H: 1,
			Data: []byte{1, 2, 3, 4}}},
		{"video_move", &VideoMove{Stream: 7, Dst: geom.XYWH(100, 100, 352, 240)}},
		{"video_end", &VideoEnd{Stream: 7}},
		{"audio_data", &AudioData{PTS: 999, Data: []byte{5, 6, 7}}},
		{"server_init", &ServerInit{Ver: 3, W: 1024, H: 768, Format: pixel.FormatARGB32,
			CacheKB: 4096, CacheWarm: 1}},
		{"client_init_owner", &ClientInit{ViewW: 320, ViewH: 240, Name: "pda", Role: RoleOwner,
			CacheKB: 8192}},
		{"client_init_viewer", &ClientInit{ViewW: 1024, ViewH: 768, Name: "watch", Role: RoleViewer}},
		{"resize", &Resize{ViewW: 640, ViewH: 480}},
		{"input", &Input{Kind: InputMouseButton, X: 512, Y: 384, Code: 1, Press: true,
			TimeUS: 123456}},
		{"auth_challenge", &AuthChallenge{Nonce: []byte("nonce-16-bytes!!")}},
		{"auth_response", &AuthResponse{User: "ricardo", Proof: []byte{0xde, 0xad, 0xbe, 0xef}}},
		{"auth_result", &AuthResult{OK: false, Reason: "bad password"}},
		{"update_request", &UpdateRequest{Incremental: true}},
		{"cursor_set", &CursorSet{HotX: 2, HotY: 3, W: 2, H: 2,
			Pix: []pixel.ARGB{1, 2, 3, 4}}},
		{"cursor_move", &CursorMove{X: 100, Y: 200}},
		{"ping", &Ping{Seq: 3, TimeUS: 777}},
		{"pong", &Pong{Seq: 3, TimeUS: 777}},
		{"session_ticket", &SessionTicket{Ticket: []byte("ticket-0123456789abcdef"),
			Role: RoleViewer, CacheEpoch: 0x0102030405060708}},
		{"reattach", &Reattach{Ticket: []byte("ticket-0123456789abcdef"),
			ViewW: 320, ViewH: 240, Name: "pda", Role: RoleViewer, CacheKB: 8192,
			CacheEpoch: 0x0102030405060708}},
		{"attach_busy", &AttachBusy{RetryAfterMS: 250}},
		{"degrade_notice", &DegradeNotice{Rung: 2, Cause: CauseBacklog,
			BacklogBytes: 1 << 20, EstBps: 3 << 20}},
		{"audit_probe", &AuditProbe{Seq: 9, Tile: 64, Start: 16, Count: 8}},
		{"audit_reply", &AuditReply{Seq: 9, Start: 16, W: 1024, H: 768, Count: 2,
			Digests: []uint64{0x0123456789abcdef, 0xcafebabe00facade}}},
		{"time_mark", &TimeMark{Epoch: 42, TimeUS: 0x1122334455667788}},
		{"mark_ack", &MarkAck{Epoch: 42, TimeUS: 0x1122334455667788, ApplyUS: 350}},
		{"cache_store_raw", &CacheStore{Digest: 0xfeedfacecafebeef, Kind: CacheKindRaw,
			Rect: geom.XYWH(10, 20, 2, 1), Codec: compress.CodecNone,
			Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}}},
		{"cache_store_bitmap", &CacheStore{Digest: 0x0123456789abcdef, Kind: CacheKindBitmap,
			Rect: geom.XYWH(3, 3, 9, 2), Fg: pixel.RGB(255, 0, 0),
			Bg: pixel.RGB(0, 0, 255), Transparent: true, BitW: 9, BitH: 2,
			Bits: []byte{0xa5, 0x80, 0x5a, 0x00}}},
		{"cache_paint", &CachePaint{Digest: 0xfeedfacecafebeef, Rect: geom.XYWH(40, 60, 2, 1)}},
		{"cache_miss", &CacheMiss{Digest: 0xfeedfacecafebeef, Rect: geom.XYWH(40, 60, 2, 1)}},
	}
}

func goldenPath(name string) string {
	return filepath.Join("testdata", "golden_"+name+".hex")
}

func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(goldenPath(name))
	if err != nil {
		t.Fatalf("golden vector %s missing (run with -update to generate): %v", name, err)
	}
	var compact strings.Builder
	for _, line := range strings.Split(string(raw), "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		compact.WriteString(strings.Join(strings.Fields(line), ""))
	}
	buf, err := hex.DecodeString(compact.String())
	if err != nil {
		t.Fatalf("golden vector %s: bad hex: %v", name, err)
	}
	return buf
}

func writeGolden(t *testing.T, name string, frame []byte, m Message) {
	t.Helper()
	var sb strings.Builder
	fmt.Fprintf(&sb, "# %s: canonical protocol-v%d encoding (header + payload)\n",
		m.Type(), ProtoVersion)
	h := hex.EncodeToString(frame)
	for len(h) > 64 {
		sb.WriteString(h[:64] + "\n")
		h = h[64:]
	}
	sb.WriteString(h + "\n")
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath(name), []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenVectorsFrozen marshals each canonical message and requires
// the bytes to match the committed fixture exactly — the encoder side
// of the conformance contract.
func TestGoldenVectorsFrozen(t *testing.T) {
	for _, v := range goldenVectors() {
		frame, err := Marshal(v.msg)
		if err != nil {
			t.Fatalf("%s: marshal: %v", v.name, err)
		}
		if *updateGolden {
			writeGolden(t, v.name, frame, v.msg)
			continue
		}
		want := readGolden(t, v.name)
		if !bytes.Equal(frame, want) {
			t.Errorf("%s (%v): encoding drifted from golden vector\n got %s\nwant %s",
				v.name, v.msg.Type(), hex.EncodeToString(frame), hex.EncodeToString(want))
		}
	}
}

// TestGoldenVectorsRoundTrip decodes each fixture and re-encodes it:
// the result must be byte-identical, and the decoded message must
// equal the canonical construction — the decoder side of the contract.
func TestGoldenVectorsRoundTrip(t *testing.T) {
	if *updateGolden {
		t.Skip("regenerating fixtures")
	}
	for _, v := range goldenVectors() {
		frame := readGolden(t, v.name)
		m, err := ReadMessage(bytes.NewReader(frame))
		if err != nil {
			t.Fatalf("%s: decode fixture: %v", v.name, err)
		}
		out, err := Marshal(m)
		if err != nil {
			t.Fatalf("%s: re-encode: %v", v.name, err)
		}
		if !bytes.Equal(out, frame) {
			t.Errorf("%s (%v): decode → re-encode not byte-identical\n got %s\nwant %s",
				v.name, m.Type(), hex.EncodeToString(out), hex.EncodeToString(frame))
		}
		if !reflect.DeepEqual(m, v.msg) {
			t.Errorf("%s: decoded message differs from canonical construction:\n got %#v\nwant %#v",
				v.name, m, v.msg)
		}
	}
}

// TestGoldenVectorsCoverAllTypes fails when a protocol message type has
// no golden vector, so a new message type cannot ship without freezing
// its encoding.
func TestGoldenVectorsCoverAllTypes(t *testing.T) {
	covered := map[Type]bool{}
	for _, v := range goldenVectors() {
		covered[v.msg.Type()] = true
	}
	for typ := range typeNames {
		if !covered[typ] {
			t.Errorf("message type %v has no golden wire vector", typ)
		}
	}
}
