package catalog

// Fuzzing for the replay-only keyed WAL frame codec (kinds 6–8): decodeKeyed
// must never panic on arbitrary bytes, and whatever it accepts must
// re-encode to the exact input (the frame is replayed verbatim on
// recovery, so the codec has to be a bijection on its valid domain).

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// encodeKeyed frames an idempotency key ahead of an unkeyed payload — the
// layout kinds 6–8 were written in: u16 key length, key bytes, payload.
func encodeKeyed(key string, payload []byte) []byte {
	out := binary.LittleEndian.AppendUint16(nil, uint16(len(key)))
	out = append(out, key...)
	return append(out, payload...)
}

func FuzzDecodeKeyed(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0})
	f.Add(encodeKeyed("", nil))
	f.Add(encodeKeyed("k", []byte("payload")))
	f.Add(encodeKeyed("0123456789abcdef0123456789abcdef", []byte{0xff, 0x00}))
	f.Add([]byte{0xff, 0xff, 'x'}) // declared key length far past the buffer

	f.Fuzz(func(t *testing.T, b []byte) {
		key, payload, err := decodeKeyed(b)
		if err != nil {
			return
		}
		if len(key) > maxIdemKeyLen {
			t.Fatalf("decodeKeyed accepted %d-byte key (max %d)", len(key), maxIdemKeyLen)
		}
		if got := encodeKeyed(key, payload); !bytes.Equal(got, b) {
			t.Fatalf("re-encode mismatch:\n in  %x\n out %x", b, got)
		}
	})
}

func TestKeyedFrameRoundTrip(t *testing.T) {
	cases := []struct {
		key     string
		payload []byte
	}{
		{"", nil},
		{"k", nil},
		{"retry-abc123", []byte("body")},
		{string(bytes.Repeat([]byte{'x'}, maxIdemKeyLen)), []byte{0, 1, 2}},
	}
	for _, c := range cases {
		key, payload, err := decodeKeyed(encodeKeyed(c.key, c.payload))
		if err != nil {
			t.Fatalf("round trip %q: %v", c.key, err)
		}
		if key != c.key || !bytes.Equal(payload, c.payload) {
			t.Fatalf("round trip %q: got (%q, %x)", c.key, key, payload)
		}
	}
	if _, _, err := decodeKeyed([]byte{5}); err == nil {
		t.Fatal("short frame accepted")
	}
	if _, _, err := decodeKeyed([]byte{0xff, 0xff}); err == nil {
		t.Fatal("truncated key accepted")
	}
}
