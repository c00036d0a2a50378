package cipher

import (
	"bytes"
	stdrc4 "crypto/rc4"
	"encoding/hex"
	"math/rand"
	"testing"
	"testing/quick"
)

// Known-answer tests from RFC 6229.
func TestRC4KnownAnswers(t *testing.T) {
	cases := []struct {
		key  string
		want string // first 16 keystream bytes
	}{
		{"0102030405", "b2396305f03dc027ccc3524a0a1118a8"},
		{"0102030405060708", "97ab8a1bf0afb96132f2f67258da15a8"},
		{"0102030405060708090a0b0c0d0e0f10", "9ac7cc9a609d1ef7b2932899cde41b97"},
	}
	for _, c := range cases {
		key, _ := hex.DecodeString(c.key)
		want, _ := hex.DecodeString(c.want)
		rc, err := NewRC4(key)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 16)
		rc.XORKeyStream(got, make([]byte, 16)) // XOR with zeros = keystream
		if !bytes.Equal(got, want) {
			t.Errorf("key %s: keystream %x, want %x", c.key, got, want)
		}
	}
}

func TestRC4KeyValidation(t *testing.T) {
	if _, err := NewRC4(nil); err != ErrShortKey {
		t.Error("nil key should be rejected")
	}
	if _, err := NewRC4(make([]byte, 257)); err != ErrShortKey {
		t.Error("over-long key should be rejected")
	}
	if _, err := NewRC4(make([]byte, 256)); err != nil {
		t.Error("256-byte key is legal")
	}
}

func TestRC4RoundTrip(t *testing.T) {
	f := func(key []byte, msg []byte) bool {
		if len(key) == 0 || len(key) > 256 {
			key = []byte("default-key")
		}
		enc, _ := NewRC4(key)
		dec, _ := NewRC4(key)
		ct := make([]byte, len(msg))
		enc.XORKeyStream(ct, msg)
		pt := make([]byte, len(ct))
		dec.XORKeyStream(pt, ct)
		return bytes.Equal(pt, msg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRC4StreamSplitInvariance(t *testing.T) {
	// Encrypting in many small writes must equal one big write.
	key := []byte("split-key")
	a, _ := NewRC4(key)
	b, _ := NewRC4(key)
	msg := bytes.Repeat([]byte("thin client "), 40)

	one := make([]byte, len(msg))
	a.XORKeyStream(one, msg)

	many := make([]byte, len(msg))
	for i := 0; i < len(msg); i += 7 {
		end := min(i+7, len(msg))
		b.XORKeyStream(many[i:end], msg[i:end])
	}
	if !bytes.Equal(one, many) {
		t.Error("keystream depends on write chunking")
	}
}

// TestRC4MatchesStdlib: over 1 MiB of random input, cut into calls at
// random points (empty calls included), the keystream is byte-identical
// to crypto/rc4's under the same key.
func TestRC4MatchesStdlib(t *testing.T) {
	rnd := rand.New(rand.NewSource(6229))
	for _, keyLen := range []int{1, 5, 16, 256} {
		key := make([]byte, keyLen)
		rnd.Read(key)
		ours, err := NewRC4(key)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := stdrc4.NewCipher(key)
		if err != nil {
			t.Fatal(err)
		}
		src := make([]byte, 1<<20)
		rnd.Read(src)
		got, want := make([]byte, len(src)), make([]byte, len(src))
		ref.XORKeyStream(want, src)
		for off := 0; off < len(src); {
			end := min(off+rnd.Intn(4096), len(src))
			ours.XORKeyStream(got[off:end], src[off:end])
			off = end
		}
		if !bytes.Equal(got, want) {
			i := 0
			for got[i] == want[i] {
				i++
			}
			t.Fatalf("key length %d: keystream differs from crypto/rc4 at byte %d", keyLen, i)
		}
	}
}

func TestStreamConnDuplex(t *testing.T) {
	// Server writes, client reads (and vice versa) through a shared pipe
	// modeled by two buffers.
	key := []byte("session-key-128")
	var s2c, c2s bytes.Buffer

	srv, err := NewStreamConn(rwPair{&c2s, &s2c}, key, true)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := NewStreamConn(rwPair{&s2c, &c2s}, key, false)
	if err != nil {
		t.Fatal(err)
	}

	msg := []byte("display update: SFILL 0,0 100x100 #336699")
	if _, err := srv.Write(msg); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(s2c.Bytes(), []byte("SFILL")) {
		t.Error("plaintext visible on the wire")
	}
	got := make([]byte, len(msg))
	if _, err := cli.Read(got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Errorf("client read %q, want %q", got, msg)
	}

	// Reverse direction.
	input := []byte("mouse 512,384 btn1")
	if _, err := cli.Write(input); err != nil {
		t.Fatal(err)
	}
	got2 := make([]byte, len(input))
	if _, err := srv.Read(got2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got2, input) {
		t.Errorf("server read %q, want %q", got2, input)
	}
}

func TestStreamConnDirectionsIndependent(t *testing.T) {
	// The two directions must not share a keystream.
	key := []byte("k")
	var s2c, c2s bytes.Buffer
	srv, _ := NewStreamConn(rwPair{&c2s, &s2c}, key, true)
	cli, _ := NewStreamConn(rwPair{&s2c, &c2s}, key, false)
	msg := make([]byte, 64) // zeros expose the raw keystream
	srv.Write(msg)
	cli.Write(msg)
	if bytes.Equal(s2c.Bytes(), c2s.Bytes()) {
		t.Error("directions share a keystream (two-time pad)")
	}
}

// rwPair glues separate read and write ends into an io.ReadWriter.
type rwPair struct {
	r *bytes.Buffer
	w *bytes.Buffer
}

func (p rwPair) Read(b []byte) (int, error)  { return p.r.Read(b) }
func (p rwPair) Write(b []byte) (int, error) { return p.w.Write(b) }

func BenchmarkRC4Throughput(b *testing.B) {
	rc, _ := NewRC4([]byte("bench-key-128-bits-x"))
	buf := make([]byte, 64*1024)
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rc.XORKeyStream(buf, buf)
	}
}
