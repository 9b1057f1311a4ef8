// Package ckpt implements crash-consistent, checksummed snapshots of the
// executable runtime's full training state — the durable half of the
// fault-tolerance story. PR 6 made a World *survive* a permanent rank
// loss (degraded stepping around the dead rank); this package makes the
// loss *recoverable*: a snapshot taken before the failure carries every
// byte a rebuilt world needs to resume bit-identically — per-expert and
// gate parameters, the step and collective-op counters, and the private
// RNG state of noisy gates.
//
// On-disk format (all integers little-endian):
//
//	offset 0   magic "FSMC" (4 bytes)
//	offset 4   format version, uint32
//	offset 8   payload length N, uint64
//	offset 16  payload: gob-encoded Snapshot (N bytes)
//	offset 16+N  CRC-64/ECMA of the payload, uint64
//
// Two guarantees hold by construction:
//
//   - Atomicity: Save writes to a temp file in the target directory,
//     fsyncs it, renames it over the final path and fsyncs the directory.
//     A crash at any point leaves either the old snapshot or the new one,
//     never a torn file under the final name.
//
//   - Loud corruption: Load verifies magic, version, length and checksum
//     before decoding. A truncated, overlong, bit-flipped or foreign file
//     fails with a typed sentinel error (ErrTruncated, ErrTrailing,
//     ErrChecksum, ErrBadMagic, ErrVersion) matchable with errors.Is —
//     never silent wrong state.
package ckpt

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc64"
	"os"
	"path/filepath"
)

// Version is the current snapshot format version. Decoding rejects any
// other version with ErrVersion; readers never guess at unknown layouts.
const Version = 1

// magic identifies a snapshot file ("FSMoe Checkpoint").
var magic = [4]byte{'F', 'S', 'M', 'C'}

// headerLen is the fixed prefix before the payload; trailerLen the CRC.
const (
	headerLen  = 4 + 4 + 8
	trailerLen = 8
)

// Typed load failures, matchable with errors.Is. Every way a snapshot
// file can be bad maps to exactly one of them.
var (
	// ErrBadMagic reports a file that is not a snapshot at all.
	ErrBadMagic = errors.New("ckpt: not a checkpoint file (bad magic)")
	// ErrVersion reports a snapshot written by an incompatible format
	// version.
	ErrVersion = errors.New("ckpt: unsupported checkpoint version")
	// ErrTruncated reports a snapshot shorter than its own accounting —
	// a torn write or a truncated copy.
	ErrTruncated = errors.New("ckpt: truncated checkpoint")
	// ErrTrailing reports a snapshot longer than its own accounting:
	// bytes follow the CRC trailer, or the length field shrank.
	ErrTrailing = errors.New("ckpt: trailing bytes after checkpoint")
	// ErrChecksum reports payload corruption: the stored CRC-64 does not
	// match the bytes on disk.
	ErrChecksum = errors.New("ckpt: checksum mismatch (corrupted checkpoint)")
	// ErrNoCheckpoint reports a Manager directory holding no snapshot.
	ErrNoCheckpoint = errors.New("ckpt: no checkpoint found")
)

// crcTable is the CRC-64/ECMA table the payload checksum uses.
var crcTable = crc64.MakeTable(crc64.ECMA)

// Tensor is one named parameter's snapshot: the shape and a copy of the
// flat data.
type Tensor struct {
	Name  string
	Shape []int
	Data  []float64
}

// RNGState is the full internal state of one xrand.RNG — the state word
// and the Weyl increment. Restoring it replays the identical stream.
type RNGState struct {
	State uint64
	Gamma uint64
}

// WorldState is one World's snapshot: its counters, every parameter of
// its layer (gate first, then each expert in index order — the GradElems
// layout), and the private RNG state of gates that hold one.
type WorldState struct {
	// Steps is the world's completed-step counter; CollOps the monotone
	// collective-operation counter that seeds deterministic fault-guard
	// ids. Restoring both makes a resumed run replay the same guard
	// decision space as the original.
	Steps   int
	CollOps int

	Gate    []Tensor   // gate parameters in Params() order
	Experts [][]Tensor // Experts[e] is expert e's parameters in Params() order

	// GateRNG holds the gate's private RNG state when the gate carries one
	// (GShard's noisy gating); empty otherwise.
	GateRNG []RNGState
}

// Snapshot is a full-stack training snapshot: one WorldState per layer,
// in stack order, plus the global step ordinal it was taken at.
type Snapshot struct {
	Step   int
	Worlds []WorldState
}

// Encode writes s in the versioned, checksummed wire format.
func Encode(s *Snapshot) ([]byte, error) {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(s); err != nil {
		return nil, fmt.Errorf("ckpt: encode: %w", err)
	}
	p := payload.Bytes()
	out := make([]byte, 0, headerLen+len(p)+trailerLen)
	out = append(out, magic[:]...)
	out = binary.LittleEndian.AppendUint32(out, Version)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(p)))
	out = append(out, p...)
	out = binary.LittleEndian.AppendUint64(out, crc64.Checksum(p, crcTable))
	return out, nil
}

// Decode parses a snapshot, verifying magic, version, length and checksum
// before the payload is interpreted. Failures return the typed sentinel
// errors above (wrapped with detail), so callers distinguish "not a
// checkpoint" from "corrupted checkpoint" from "future format".
func Decode(raw []byte) (*Snapshot, error) {
	if len(raw) < headerLen {
		return nil, fmt.Errorf("%w: %d bytes, header needs %d", ErrTruncated, len(raw), headerLen)
	}
	if !bytes.Equal(raw[:4], magic[:]) {
		return nil, fmt.Errorf("%w: got %q", ErrBadMagic, raw[:4])
	}
	if v := binary.LittleEndian.Uint32(raw[4:8]); v != Version {
		return nil, fmt.Errorf("%w: file version %d, reader version %d", ErrVersion, v, Version)
	}
	n := binary.LittleEndian.Uint64(raw[8:16])
	// Compare against what is actually present before allocating or
	// slicing, so a corrupted length field reads as truncation, not a
	// panic or an absurd allocation. The comparison stays on the file's
	// side: headerLen+n+trailerLen would wrap for n near 2⁶⁴.
	if len(raw) < headerLen+trailerLen || n > uint64(len(raw)-headerLen-trailerLen) {
		return nil, fmt.Errorf("%w: payload claims %d bytes, file holds %d past the header",
			ErrTruncated, n, len(raw)-headerLen)
	}
	end := headerLen + int(n)
	if extra := len(raw) - end - trailerLen; extra > 0 {
		return nil, fmt.Errorf("%w: %d bytes past the trailer", ErrTrailing, extra)
	}
	p := raw[headerLen:end]
	want := binary.LittleEndian.Uint64(raw[end:])
	if got := crc64.Checksum(p, crcTable); got != want {
		return nil, fmt.Errorf("%w: stored %#x, computed %#x", ErrChecksum, want, got)
	}
	var s Snapshot
	r := bytes.NewReader(p)
	if err := gob.NewDecoder(r).Decode(&s); err != nil {
		// The checksum passed, so the bytes are what was written — a gob
		// failure here is an encoder/decoder skew, not disk corruption.
		return nil, fmt.Errorf("ckpt: decode payload: %w", err)
	}
	if r.Len() > 0 {
		return nil, fmt.Errorf("ckpt: decode payload: %d bytes after the snapshot", r.Len())
	}
	return &s, nil
}

// Save writes s to path atomically: temp file in the same directory,
// fsync, rename over path, fsync the directory. A crash mid-save leaves
// path either absent/old or fully written, never torn.
func Save(path string, s *Snapshot) (err error) {
	raw, err := Encode(s)
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".ckpt-*.tmp")
	if err != nil {
		return fmt.Errorf("ckpt: save: %w", err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if _, err = tmp.Write(raw); err != nil {
		return fmt.Errorf("ckpt: save: %w", err)
	}
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("ckpt: save: fsync: %w", err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("ckpt: save: %w", err)
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("ckpt: save: %w", err)
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a completed rename is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("ckpt: save: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("ckpt: save: fsync dir: %w", err)
	}
	return nil
}

// Load reads and verifies a snapshot file.
func Load(path string) (*Snapshot, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("ckpt: load: %w", err)
	}
	s, err := Decode(raw)
	if err != nil {
		return nil, fmt.Errorf("load %s: %w", filepath.Base(path), err)
	}
	return s, nil
}
