package resultcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
)

// FuzzVerify feeds arbitrary entry files to the envelope check. It must
// never panic, must report every rejection as a *CorruptError, and may
// accept a file only if the payload it returns is exactly the bytes
// after the header, with the length and SHA-256 the header states. The
// seeds are a real Put file and three corruptions of it: a truncated
// header, a wrong size and a wrong digest.
func FuzzVerify(f *testing.F) {
	c, err := Open(f.TempDir(), 0)
	if err != nil {
		f.Fatal(err)
	}
	key := strings.Repeat("ab", sha256.Size)
	if err := c.Put(key, []byte("{\"cycles\": 42}\n")); err != nil {
		f.Fatal(err)
	}
	good, err := os.ReadFile(c.path(key))
	if err != nil {
		f.Fatal(err)
	}
	nl := bytes.IndexByte(good, '\n')
	payload := good[nl+1:]
	sum := sha256.Sum256(payload)
	envelope := func(digest string, size int) []byte {
		return append([]byte(fmt.Sprintf(headerFormat, digest, size)), payload...)
	}
	f.Add(good)
	f.Add(good[:nl/2])
	f.Add(envelope(hex.EncodeToString(sum[:]), len(payload)+1))
	f.Add(envelope(strings.Repeat("0", 2*sha256.Size), len(payload)))

	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := verify(key, data, errors.New("read failed")); err == nil {
			t.Fatal("accepted an entry whose read failed")
		}
		got, err := verify(key, data, nil)
		if err != nil {
			var ce *CorruptError
			if !errors.As(err, &ce) || ce.Key != key {
				t.Fatalf("rejection %v is not a CorruptError for the key", err)
			}
			return
		}
		nl := bytes.IndexByte(data, '\n')
		var digest string
		var size int64
		if nl < 0 {
			t.Fatal("accepted an entry without a header line")
		}
		if _, err := fmt.Sscanf(string(data[:nl+1]), headerFormat, &digest, &size); err != nil {
			t.Fatalf("accepted an unparseable header %q", data[:nl+1])
		}
		sum := sha256.Sum256(got)
		if !bytes.Equal(got, data[nl+1:]) || int64(len(got)) != size || hex.EncodeToString(sum[:]) != digest {
			t.Fatalf("accepted %d payload bytes against header %q", len(got), data[:nl+1])
		}
	})
}
