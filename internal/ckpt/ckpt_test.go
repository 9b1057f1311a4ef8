package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// sample builds a representative snapshot: two worlds, multi-parameter
// experts, a gate RNG state, non-trivial counters.
func sample() *Snapshot {
	mk := func(name string, vals ...float64) Tensor {
		return Tensor{Name: name, Shape: []int{1, len(vals)}, Data: vals}
	}
	return &Snapshot{
		Step: 7,
		Worlds: []WorldState{
			{
				Steps:   7,
				CollOps: 123,
				Gate:    []Tensor{mk("gshard.wg", 0.5, -1.25), mk("gshard.wnoise", 3.5)},
				Experts: [][]Tensor{
					{mk("ffn.w1", 1, 2, 3), mk("ffn.b1", 0)},
					{mk("ffn.w1", -4, 5e-300, 6), mk("ffn.b1", 1)},
				},
				GateRNG: []RNGState{{State: 0xdeadbeef, Gamma: 0x9e3779b97f4a7c15}},
			},
			{Steps: 7, CollOps: 88, Gate: []Tensor{mk("ec.wg", 9)}},
		},
	}
}

func TestCkptRoundTrip(t *testing.T) {
	want := sample()
	raw, err := Encode(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("round trip mismatch:\nwant %+v\ngot  %+v", want, got)
	}
}

func TestCkptSaveLoadAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap"+Ext)
	want := sample()
	if err := Save(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("save/load round trip mismatch")
	}
	// Atomicity: no temp residue survives a successful save.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("temp file %s left behind after save", e.Name())
		}
	}
}

// TestCkptTruncation: every truncation point fails with ErrTruncated —
// inside the header, inside the payload, and inside the trailer CRC.
func TestCkptTruncation(t *testing.T) {
	raw, err := Encode(sample())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 3, headerLen - 1, headerLen + 5, len(raw) - trailerLen - 1, len(raw) - 1} {
		if _, err := Decode(raw[:n]); !errors.Is(err, ErrTruncated) {
			t.Fatalf("Decode of %d/%d bytes = %v, want ErrTruncated", n, len(raw), err)
		}
	}
}

// TestCkptBitFlip: flipping any single bit of the payload (or the stored
// CRC) is detected as ErrChecksum; flipping the length field reads as
// truncation; flipping the magic or version as their own typed errors.
func TestCkptBitFlip(t *testing.T) {
	raw, err := Encode(sample())
	if err != nil {
		t.Fatal(err)
	}
	flip := func(off int, bit uint) []byte {
		c := append([]byte(nil), raw...)
		c[off] ^= 1 << bit
		return c
	}
	// Payload corruption, sampled across the payload and the CRC trailer.
	for _, off := range []int{headerLen, headerLen + 7, len(raw)/2 | 1, len(raw) - trailerLen, len(raw) - 1} {
		if _, err := Decode(flip(off, 3)); !errors.Is(err, ErrChecksum) {
			t.Fatalf("bit flip at %d = %v, want ErrChecksum", off, err)
		}
	}
	// Length-field corruption (grows the claimed payload) = truncation.
	if _, err := Decode(flip(8+7, 7)); !errors.Is(err, ErrTruncated) {
		t.Fatalf("length-field flip = %v, want ErrTruncated", err)
	}
	if _, err := Decode(flip(0, 0)); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("magic flip = %v, want ErrBadMagic", err)
	}
	if _, err := Decode(flip(4, 0)); !errors.Is(err, ErrVersion) {
		t.Fatalf("version flip = %v, want ErrVersion", err)
	}
}

func TestCkptTruncatedFileOnDisk(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap"+Ext)
	if err := Save(path, sample()); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); !errors.Is(err, ErrTruncated) {
		t.Fatalf("Load of truncated file = %v, want ErrTruncated", err)
	}
}

func TestCkptManager(t *testing.T) {
	m := &Manager{Dir: t.TempDir(), Keep: 2}
	if _, err := m.Latest(); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("Latest on empty dir = %v, want ErrNoCheckpoint", err)
	}
	for _, step := range []int{1, 2, 3} {
		s := sample()
		s.Step = step
		if _, err := m.Save(s); err != nil {
			t.Fatal(err)
		}
	}
	paths, err := m.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("Keep=2 retained %d snapshots: %v", len(paths), paths)
	}
	got, err := m.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	if got.Step != 3 {
		t.Fatalf("LoadLatest step = %d, want 3", got.Step)
	}
	// Pruned oldest, kept the two newest.
	if base := filepath.Base(paths[0]); !strings.Contains(base, "000000000002") {
		t.Fatalf("oldest retained snapshot = %s, want step 2", base)
	}
}

func TestCkptManagerKeepAll(t *testing.T) {
	m := &Manager{Dir: t.TempDir()}
	for step := 0; step < 4; step++ {
		s := sample()
		s.Step = step
		if _, err := m.Save(s); err != nil {
			t.Fatal(err)
		}
	}
	paths, err := m.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 4 {
		t.Fatalf("Keep=0 must retain all, got %d", len(paths))
	}
}

// overflowFile is a 40-byte file whose length field is 2⁶⁴−11, so
// headerLen+n+trailerLen wraps around to 13.
func overflowFile() []byte {
	raw := make([]byte, 40)
	copy(raw, magic[:])
	binary.LittleEndian.PutUint32(raw[4:], Version)
	binary.LittleEndian.PutUint64(raw[8:], math.MaxUint64-10)
	return raw
}

// TestCkptLengthOverflow: a length field near 2⁶⁴ reads as truncation
// instead of wrapping the bounds check and panicking on the slice.
func TestCkptLengthOverflow(t *testing.T) {
	if _, err := Decode(overflowFile()); !errors.Is(err, ErrTruncated) {
		t.Fatalf("Decode of overflowing length = %v, want ErrTruncated", err)
	}
}

// TestCkptTrailing: bytes past the CRC trailer, or a length field that
// shrank, make the file longer than its accounting.
func TestCkptTrailing(t *testing.T) {
	raw, err := Encode(sample())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(append(raw[:len(raw):len(raw)], 0)); !errors.Is(err, ErrTrailing) {
		t.Fatalf("Decode with a trailing byte = %v, want ErrTrailing", err)
	}
	short := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint64(short[8:], binary.LittleEndian.Uint64(raw[8:])-1)
	if _, err := Decode(short); !errors.Is(err, ErrTrailing) {
		t.Fatalf("Decode with a shrunk length field = %v, want ErrTrailing", err)
	}
}

// FuzzDecode: Decode never panics, and whatever it accepts re-encodes to
// the identical bytes — a checkpoint file has exactly one valid form.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		s, err := Decode(raw)
		if err != nil {
			return
		}
		again, err := Encode(s)
		if err != nil {
			t.Fatalf("re-encode of an accepted snapshot: %v", err)
		}
		if !bytes.Equal(again, raw) {
			t.Fatalf("accepted %d bytes re-encode to %d different bytes", len(raw), len(again))
		}
	})
}
