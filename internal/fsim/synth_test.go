package fsim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"

	"iolite/internal/mem"
)

// refSynthByte is the per-byte content formula synthWord must reproduce:
// one hash per byte, selecting byte off&7 of the hash of word off>>3.
func refSynthByte(id FileID, off int64) byte {
	x := uint64(off>>3) ^ uint64(id)*0x9e3779b97f4a7c15
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	return byte(x>>uint((off&7)*8)) | 1
}

// refRead is what a read of [off, off+n) of f must return: overlay pages
// where written (ov), the per-byte formula elsewhere.
func refRead(id FileID, ov map[int64][]byte, off, n int64) []byte {
	out := make([]byte, n)
	for i := range out {
		at := off + int64(i)
		if pg, ok := ov[at/mem.PageSize]; ok {
			out[i] = pg[at%mem.PageSize]
		} else {
			out[i] = refSynthByte(id, at)
		}
	}
	return out
}

// TestSynthMatchesPerByteFormula compares ReadRange and Expected against
// the per-byte formula at random file ids, offsets and lengths: unaligned
// heads and tails, page-crossing ranges and sub-word reads, on files with
// and without overlay pages.
func TestSynthMatchesPerByteFormula(t *testing.T) {
	_, fs := newFS()
	rng := rand.New(rand.NewSource(5))
	const size = 6 * mem.PageSize
	for trial := 0; trial < 400; trial++ {
		f := fs.Create("/r", size)
		f.ID = FileID(rng.Int63())
		ov := map[int64][]byte{}
		if trial%2 == 1 {
			// Overlay one or two pages with a short write.
			for w := rng.Intn(2) + 1; w > 0; w-- {
				at := rng.Int63n(size - 64)
				data := make([]byte, rng.Intn(64)+1)
				rng.Read(data)
				for pg := at / mem.PageSize; pg <= (at+int64(len(data))-1)/mem.PageSize; pg++ {
					if ov[pg] == nil {
						ov[pg] = refRead(f.ID, nil, pg*mem.PageSize, mem.PageSize)
					}
				}
				fs.WriteRange(f, at, data)
				for i, b := range data {
					p := at + int64(i)
					ov[p/mem.PageSize][p%mem.PageSize] = b
				}
			}
		}
		off := rng.Int63n(size)
		var n int64
		switch trial % 4 {
		case 0:
			n = rng.Int63n(8) // within or across one word
		case 1:
			n = rng.Int63n(3 * mem.PageSize) // page-crossing
		default:
			n = rng.Int63n(size)
		}
		n = min(n, size-off)
		want := refRead(f.ID, ov, off, n)
		got := make([]byte, n)
		fs.ReadRange(nil, f, off, got)
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d: ReadRange(id %d, [%d,%d), %d overlay pages) differs from the per-byte formula",
				trial, f.ID, off, off+n, len(ov))
		}
		if !bytes.Equal(fs.Expected(f, off, n), want) {
			t.Fatalf("trial %d: Expected differs from the per-byte formula", trial)
		}
	}
}

// TestSynthDigest pins file 1's first 64 KB. Content bytes never move
// simulated time, so no figure golden would see a change to the formula.
func TestSynthDigest(t *testing.T) {
	_, fs := newFS()
	f := fs.Create("/d", 64<<10)
	if f.ID != 1 {
		t.Fatalf("first file has id %d", f.ID)
	}
	sum := sha256.Sum256(fs.Expected(f, 0, 64<<10))
	const want = "b35d5c2b4293c9e1fd526cba1e4e15affe9e27984fff7679d9e657620ed87a12"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("sha256 of file 1 [0, 64 KB) = %s, want %s", got, want)
	}
}
