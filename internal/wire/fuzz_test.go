package wire

import (
	"bytes"
	"errors"
	"testing"

	"thinc/internal/compress"
	"thinc/internal/geom"
)

// FuzzReadMessage drives the framed decoder with arbitrary bytes: it
// must never panic, and anything it accepts must survive a marshal /
// re-decode round trip (the decoder and encoder agree on the format).
// A hello (ClientInit, Reattach, SessionTicket, ServerInit) has a fixed
// layout, so an accepted one must re-marshal to exactly the frame it
// was read from. The corpus seeds every message type — display, video,
// audio, control, auth, and the session-resilience messages — plus
// truncated and corrupted variants of each.
func FuzzReadMessage(f *testing.F) {
	for _, m := range sampleMessages() {
		buf, err := Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
		// Truncated frame: header promises more payload than follows.
		if len(buf) > HeaderSize {
			f.Add(buf[:HeaderSize+(len(buf)-HeaderSize)/2])
		}
		// Corrupt length field.
		bad := append([]byte(nil), buf...)
		bad[1] ^= 0xff
		f.Add(bad)
		// Flipped type byte: payload of one type decoded as another.
		bad2 := append([]byte(nil), buf...)
		bad2[0] ^= 0x07
		f.Add(bad2)
	}
	// Tail-cut and over-long seeds: every control message reframed
	// with its last few bytes cut off, and with one byte too many, so a
	// short or padded hello enters the decoder as a well-formed frame
	// (and must error, never decode with a zeroed or ignored field).
	for _, m := range controlMessages() {
		buf, err := Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		payload := buf[HeaderSize:]
		for cut := len(payload) - 7; cut < len(payload); cut++ {
			if cut > 0 {
				f.Add(reframe(m.Type(), payload[:cut]))
			}
		}
		f.Add(reframe(m.Type(), append(payload[:len(payload):len(payload)], 0)))
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadMessage(bytes.NewReader(data))
		if err != nil {
			return
		}
		out, err := Marshal(m)
		if err != nil {
			t.Fatalf("accepted message failed to marshal: %v", err)
		}
		m2, err := ReadMessage(bytes.NewReader(out))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if m2.Type() != m.Type() {
			t.Fatalf("type changed across round trip: %v -> %v", m.Type(), m2.Type())
		}
		switch m.(type) {
		case *ClientInit, *Reattach, *SessionTicket, *ServerInit:
			if len(data) < len(out) || !bytes.Equal(data[:len(out)], out) {
				t.Fatalf("%v: accepted hello re-marshals to different bytes:\n got %x\nread %x",
					m.Type(), out, data)
			}
		}
	})
}

// controlMessages returns the handshake and session-control subset —
// the messages a hostile or broken peer feeds the server first.
func controlMessages() []Message {
	var ctl []Message
	for _, m := range sampleMessages() {
		switch m.(type) {
		case *ServerInit, *ClientInit, *Resize, *Input,
			*AuthChallenge, *AuthResponse, *AuthResult, *UpdateRequest,
			*Ping, *Pong, *SessionTicket, *Reattach, *DegradeNotice,
			*AuditProbe, *AuditReply, *TimeMark, *MarkAck,
			*CachePaint, *CacheMiss, *AttachBusy:
			ctl = append(ctl, m)
		}
	}
	return ctl
}

// reframe frames a (possibly shortened) payload with a fresh header so
// truncated-extension variants enter the decoder as well-formed frames.
func reframe(t Type, payload []byte) []byte {
	buf := []byte{byte(t), 0, 0, 0, 0}
	buf[1] = byte(len(payload) >> 24)
	buf[2] = byte(len(payload) >> 16)
	buf[3] = byte(len(payload) >> 8)
	buf[4] = byte(len(payload))
	return append(buf, payload...)
}

// TestControlMessageTruncationSweep cuts every control message at every
// byte boundary: no truncation may panic the decoder, and every
// truncation must be reported as an error, never silently accepted as a
// different valid message of the same type. One byte too many is an
// error as well: every payload has a fixed layout.
func TestControlMessageTruncationSweep(t *testing.T) {
	for _, m := range controlMessages() {
		buf, err := Marshal(m)
		if err != nil {
			t.Fatalf("%v: marshal: %v", m.Type(), err)
		}
		payload := buf[HeaderSize:]
		for cut := 0; cut < len(payload); cut++ {
			if _, err := Unmarshal(m.Type(), payload[:cut]); err == nil {
				// A shorter prefix that still decodes means the format is
				// ambiguous under truncation.
				t.Errorf("%v: payload truncated to %d/%d bytes decoded without error",
					m.Type(), cut, len(payload))
			}
		}
		if _, err := Unmarshal(m.Type(), append(payload, 0)); err == nil {
			t.Errorf("%v: payload with a trailing byte decoded without error", m.Type())
		}
	}
}

// TestControlMessageBitFlips flips each byte of every control message
// payload and decodes: corruption may be accepted (values change) or
// rejected, but must never panic, and oversized inner lengths must be
// caught by the bounds-checked decoder.
func TestControlMessageBitFlips(t *testing.T) {
	for _, m := range controlMessages() {
		buf, err := Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		payload := buf[HeaderSize:]
		for i := range payload {
			mut := append([]byte(nil), payload...)
			mut[i] ^= 0xff
			_, _ = Unmarshal(m.Type(), mut) // must not panic
		}
	}
}

// TestUnknownTypeSkippable verifies the forward-compatibility contract:
// a well-framed message of an unknown type yields ErrUnknownType with
// the stream positioned at the next frame, so a reader can skip it.
func TestUnknownTypeSkippable(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xee, 0, 0, 0, 3, 1, 2, 3}) // unknown type, 3-byte payload
	if err := WriteMessage(&buf, &Ping{Seq: 9}); err != nil {
		t.Fatal(err)
	}
	_, err := ReadMessage(&buf)
	if !errors.Is(err, ErrUnknownType) {
		t.Fatalf("unknown type: got %v, want ErrUnknownType", err)
	}
	m, err := ReadMessage(&buf)
	if err != nil {
		t.Fatalf("read after skipped unknown type: %v", err)
	}
	if p, ok := m.(*Ping); !ok || p.Seq != 9 {
		t.Fatalf("stream misaligned after unknown type: got %#v", m)
	}
}

// streamingMessages returns the high-volume streaming subset: the
// length-prefixed payload carriers where a corrupted length field is
// most dangerous (over-read, over-allocation, misframing). CacheStore
// rides along — it is the only other slab carrier and its two kinds
// have different trailing-slab sizing rules.
func streamingMessages() []Message {
	return []Message{
		&VideoFrame{Stream: 1, Seq: 2, PTS: 3, W: 8, H: 6, Data: make([]byte, 8*6*3/2)},
		&VideoFrame{Stream: 9, Seq: 1 << 30, PTS: 1 << 60, W: 1920, H: 1080, Data: []byte{1}},
		&VideoFrame{},
		&AudioData{PTS: 44100, Data: make([]byte, 512)},
		&AudioData{PTS: ^uint64(0), Data: []byte{0xff}},
		&AudioData{},
		&CacheStore{Digest: 0xfeedfacecafebeef, Kind: CacheKindRaw,
			Rect: geom.XYWH(4, 8, 4, 2), Codec: compress.CodecNone,
			Data: make([]byte, 4*2*4)},
		&CacheStore{Digest: 1, Kind: CacheKindRaw, Blend: true,
			Rect: geom.XYWH(0, 0, 1, 1), Codec: compress.CodecRLE,
			Data: []byte{1, 2, 3}},
		&CacheStore{Digest: 2, Kind: CacheKindBitmap,
			Rect: geom.XYWH(16, 16, 10, 3), Fg: 0xffffffff, Bg: 0xff000000,
			Transparent: true, BitW: 10, BitH: 3, Bits: make([]byte, 2*3)},
	}
}

// FuzzVideoFrame drives the VideoFrame payload decoder directly with
// arbitrary bytes. Anything accepted must carry a Data slice actually
// backed by the input (no conjured bytes from a lying length field) and
// must survive a marshal / re-decode round trip.
func FuzzVideoFrame(f *testing.F) {
	for _, m := range streamingMessages() {
		if _, ok := m.(*VideoFrame); !ok {
			continue
		}
		buf, err := Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf[HeaderSize:])
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		m, err := Unmarshal(TVideoFrame, payload)
		if err != nil {
			return
		}
		vf := m.(*VideoFrame)
		if len(vf.Data) > len(payload) {
			t.Fatalf("decoder conjured %d data bytes from a %d-byte payload",
				len(vf.Data), len(payload))
		}
		out, err := Marshal(vf)
		if err != nil {
			t.Fatalf("accepted frame failed to marshal: %v", err)
		}
		m2, err := ReadMessage(bytes.NewReader(out))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		vf2 := m2.(*VideoFrame)
		if vf2.Stream != vf.Stream || vf2.Seq != vf.Seq || vf2.PTS != vf.PTS ||
			vf2.W != vf.W || vf2.H != vf.H || !bytes.Equal(vf2.Data, vf.Data) {
			t.Fatalf("frame changed across round trip: %#v -> %#v", vf, vf2)
		}
	})
}

// FuzzAudioData is the same contract for the audio channel — the one
// payload that must keep flowing even at the harshest degradation rung,
// so its decoder gets its own target.
func FuzzAudioData(f *testing.F) {
	for _, m := range streamingMessages() {
		if _, ok := m.(*AudioData); !ok {
			continue
		}
		buf, err := Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf[HeaderSize:])
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		m, err := Unmarshal(TAudioData, payload)
		if err != nil {
			return
		}
		ad := m.(*AudioData)
		if len(ad.Data) > len(payload) {
			t.Fatalf("decoder conjured %d data bytes from a %d-byte payload",
				len(ad.Data), len(payload))
		}
		out, err := Marshal(ad)
		if err != nil {
			t.Fatalf("accepted chunk failed to marshal: %v", err)
		}
		m2, err := ReadMessage(bytes.NewReader(out))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		ad2 := m2.(*AudioData)
		if ad2.PTS != ad.PTS || !bytes.Equal(ad2.Data, ad.Data) {
			t.Fatalf("chunk changed across round trip: %#v -> %#v", ad, ad2)
		}
	})
}

// FuzzCacheStore drives the CacheStore payload decoder directly. The
// message has two kinds with different slab-sizing rules (explicit
// length for RAW, geometry-derived for BITMAP), so it gets its own
// target: anything accepted must carry slabs backed by the input and
// must survive a marshal / re-decode round trip.
func FuzzCacheStore(f *testing.F) {
	for _, m := range streamingMessages() {
		if _, ok := m.(*CacheStore); !ok {
			continue
		}
		buf, err := Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf[HeaderSize:])
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		m, err := Unmarshal(TCacheStore, payload)
		if err != nil {
			return
		}
		cs := m.(*CacheStore)
		if len(cs.Data)+len(cs.Bits) > len(payload) {
			t.Fatalf("decoder conjured %d slab bytes from a %d-byte payload",
				len(cs.Data)+len(cs.Bits), len(payload))
		}
		out, err := Marshal(cs)
		if err != nil {
			t.Fatalf("accepted store failed to marshal: %v", err)
		}
		m2, err := ReadMessage(bytes.NewReader(out))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		cs2 := m2.(*CacheStore)
		if cs2.Digest != cs.Digest || cs2.Kind != cs.Kind || cs2.Rect != cs.Rect ||
			!bytes.Equal(cs2.Data, cs.Data) || !bytes.Equal(cs2.Bits, cs.Bits) {
			t.Fatalf("store changed across round trip: %#v -> %#v", cs, cs2)
		}
	})
}

// TestStreamingMessageTruncationSweep is the control-message truncation
// sweep applied to the streaming carriers: every cut of every payload
// must be rejected, never silently misframed.
func TestStreamingMessageTruncationSweep(t *testing.T) {
	for _, m := range streamingMessages() {
		buf, err := Marshal(m)
		if err != nil {
			t.Fatalf("%v: marshal: %v", m.Type(), err)
		}
		payload := buf[HeaderSize:]
		for cut := 0; cut < len(payload); cut++ {
			if _, err := Unmarshal(m.Type(), payload[:cut]); err == nil {
				t.Errorf("%v: payload truncated to %d/%d bytes decoded without error",
					m.Type(), cut, len(payload))
			}
		}
	}
}

// TestStreamingMessageBitFlips flips each payload byte of the streaming
// messages: corruption may decode to different values or be rejected,
// but must never panic or over-read.
func TestStreamingMessageBitFlips(t *testing.T) {
	for _, m := range streamingMessages() {
		buf, err := Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		payload := buf[HeaderSize:]
		for i := range payload {
			mut := append([]byte(nil), payload...)
			mut[i] ^= 0xff
			_, _ = Unmarshal(m.Type(), mut) // must not panic
		}
	}
}
