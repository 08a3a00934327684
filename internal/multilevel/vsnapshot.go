package multilevel

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"strconv"

	"gpp/internal/partition"
)

// VSnapshot is the complete V-cycle state at an inner iteration boundary:
// which hierarchy level is live, the running iteration totals, and the
// level solver's own Snapshot. Resuming a V-cycle from a VSnapshot in a
// fresh process produces a Result bitwise identical to the uninterrupted
// run — at any Workers count — because the hierarchy is rebuilt
// deterministically from the options, levels coarser than the snapshot's
// are already folded into the inner snapshot's W, and the inner snapshot
// itself restarts its level's descent bit-for-bit.
type VSnapshot struct {
	// Version is the codec version that produced this snapshot.
	Version int

	// Name is the original (finest) problem's name (informational).
	Name string

	// G, K and EdgeCount pin the original problem's shape; Fingerprint
	// pins the V-cycle identity — normalized solver options, multilevel
	// knobs, and the per-level shapes of the hierarchy they produce (see
	// vFingerprint). Resume rejects a snapshot whose identity does not
	// match; the continuation would be a different cycle.
	G, K, EdgeCount int
	Fingerprint     string

	// Levels is the hierarchy depth including the original level; Level is
	// the 0-based level the snapshot was taken in (Levels−1 = coarsest).
	Levels, Level int

	// CoarseIters and Converged mirror the coarsest solve's outcome once
	// it has finished (zero / false in snapshots taken during it);
	// DoneIters is the total inner iterations completed in levels coarser
	// than Level. Carrying them lets a resumed cycle reconstruct the
	// Result metadata, not just the labels.
	CoarseIters, DoneIters int
	Converged              bool

	// Inner is the live level's solver snapshot.
	Inner *partition.Snapshot
}

// vsnapshotVersion is the current binary codec version.
const vsnapshotVersion = 1

// vsnapshotMagic tags the binary encoding, distinct from the inner solver
// snapshot's magic so the two formats can never be confused.
const vsnapshotMagic = "gppvsnp\x01"

// maxVSnapshotInner bounds the embedded inner-snapshot length so a
// malformed header cannot demand an absurd allocation before the CRC is
// checked. The inner codec's own element cap implies its encodings stay
// far below this.
const maxVSnapshotInner = 1 << 31

// EncodeVSnapshot serializes the snapshot to the versioned binary format:
//
//	magic ‖ u32 version ‖ u32 crc32(payload) ‖ u64 len(payload) ‖ payload
//
// the same framing as partition.EncodeSnapshot; the inner solver snapshot
// is embedded as one length-prefixed blob of its own encoding, so its
// exactness guarantees (raw IEEE-754 bits, CRC) carry over wholesale.
func EncodeVSnapshot(s *VSnapshot) []byte {
	var p []byte
	putU64 := func(v uint64) { p = binary.LittleEndian.AppendUint64(p, v) }
	putStr := func(v string) { putU64(uint64(len(v))); p = append(p, v...) }
	putStr(s.Name)
	putU64(uint64(s.G))
	putU64(uint64(s.K))
	putU64(uint64(s.EdgeCount))
	putStr(s.Fingerprint)
	putU64(uint64(s.Levels))
	putU64(uint64(s.Level))
	putU64(uint64(s.CoarseIters))
	putU64(uint64(s.DoneIters))
	if s.Converged {
		putU64(1)
	} else {
		putU64(0)
	}
	inner := partition.EncodeSnapshot(s.Inner)
	putU64(uint64(len(inner)))
	p = append(p, inner...)

	out := make([]byte, 0, len(vsnapshotMagic)+16+len(p))
	out = append(out, vsnapshotMagic...)
	out = binary.LittleEndian.AppendUint32(out, vsnapshotVersion)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(p))
	out = binary.LittleEndian.AppendUint64(out, uint64(len(p)))
	return append(out, p...)
}

// vsnapDecoder is a bounds-checked cursor over the payload.
type vsnapDecoder struct {
	p   []byte
	off int
	err error
}

func (d *vsnapDecoder) u64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.p) {
		d.err = fmt.Errorf("multilevel: snapshot truncated at byte %d", d.off)
		return 0
	}
	v := binary.LittleEndian.Uint64(d.p[d.off:])
	d.off += 8
	return v
}

func (d *vsnapDecoder) bytes(what string, limit uint64) []byte {
	n := d.u64()
	if d.err == nil && n > limit {
		d.err = fmt.Errorf("multilevel: snapshot %s length %d exceeds limit", what, n)
	}
	if d.err == nil && d.off+int(n) > len(d.p) {
		d.err = fmt.Errorf("multilevel: snapshot %s truncated", what)
	}
	if d.err != nil {
		return nil
	}
	b := d.p[d.off : d.off+int(n)]
	d.off += int(n)
	return b
}

func (d *vsnapDecoder) str(what string) string {
	return string(d.bytes(what, 1<<20))
}

// DecodeVSnapshot parses and validates the binary V-cycle snapshot. Any
// malformed input — bad magic, unknown version, CRC mismatch, truncation,
// trailing garbage, or a corrupt embedded solver snapshot — is a
// descriptive error, never a panic (FuzzVCycleSnapshotDecode holds it to
// that).
func DecodeVSnapshot(raw []byte) (*VSnapshot, error) {
	head := len(vsnapshotMagic) + 16
	if len(raw) < head {
		return nil, fmt.Errorf("multilevel: snapshot too short (%d bytes)", len(raw))
	}
	if string(raw[:len(vsnapshotMagic)]) != vsnapshotMagic {
		return nil, fmt.Errorf("multilevel: not a V-cycle snapshot (bad magic)")
	}
	version := binary.LittleEndian.Uint32(raw[len(vsnapshotMagic):])
	if version != vsnapshotVersion {
		return nil, fmt.Errorf("multilevel: snapshot version %d not supported (have %d)", version, vsnapshotVersion)
	}
	wantCRC := binary.LittleEndian.Uint32(raw[len(vsnapshotMagic)+4:])
	wantLen := binary.LittleEndian.Uint64(raw[len(vsnapshotMagic)+8:])
	payload := raw[head:]
	if uint64(len(payload)) != wantLen {
		return nil, fmt.Errorf("multilevel: snapshot payload %d bytes, header says %d", len(payload), wantLen)
	}
	if got := crc32.ChecksumIEEE(payload); got != wantCRC {
		return nil, fmt.Errorf("multilevel: snapshot CRC mismatch (got %08x, want %08x)", got, wantCRC)
	}

	d := &vsnapDecoder{p: payload}
	s := &VSnapshot{Version: int(version)}
	s.Name = d.str("name")
	s.G = int(d.u64())
	s.K = int(d.u64())
	s.EdgeCount = int(d.u64())
	s.Fingerprint = d.str("fingerprint")
	s.Levels = int(d.u64())
	s.Level = int(d.u64())
	s.CoarseIters = int(d.u64())
	s.DoneIters = int(d.u64())
	s.Converged = d.u64() != 0
	innerRaw := d.bytes("inner snapshot", maxVSnapshotInner)
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(d.p) {
		return nil, fmt.Errorf("multilevel: snapshot has %d trailing bytes", len(d.p)-d.off)
	}
	inner, err := partition.DecodeSnapshot(innerRaw)
	if err != nil {
		return nil, fmt.Errorf("multilevel: inner snapshot: %w", err)
	}
	s.Inner = inner
	if s.G <= 0 || s.K <= 0 || s.EdgeCount < 0 {
		return nil, fmt.Errorf("multilevel: snapshot shape G=%d K=%d edges=%d invalid", s.G, s.K, s.EdgeCount)
	}
	if s.Levels <= 0 || s.Level < 0 || s.Level >= s.Levels {
		return nil, fmt.Errorf("multilevel: snapshot level %d of %d invalid", s.Level, s.Levels)
	}
	if s.CoarseIters < 0 || s.DoneIters < 0 {
		return nil, fmt.Errorf("multilevel: snapshot iteration counters negative (%d/%d)", s.CoarseIters, s.DoneIters)
	}
	return s, nil
}

// vFingerprint identifies one V-cycle configuration: the normalized inner
// solver options (partition.Options.Fingerprint — execution-only fields
// excluded), the multilevel knobs, the original problem shape, and the
// shape of every hierarchy level the coarsener produced, as recorded when
// the level was built (its data may be released by then). Two runs share a
// fingerprint exactly when they walk the same hierarchy with the same
// solves, which is the precondition for resuming one from the other's
// snapshot.
func vFingerprint(p *partition.Problem, opts Options, sNorm partition.Options, h *hierarchy) (string, error) {
	sfp, err := sNorm.Fingerprint()
	if err != nil {
		return "", err
	}
	b := make([]byte, 0, 256)
	b = append(b, "gpp-vcycle-v1|"...)
	b = append(b, sfp...)
	i := func(v int) {
		b = append(b, '|')
		b = strconv.AppendInt(b, int64(v), 10)
	}
	i(opts.CoarsestSize)
	i(opts.MaxLevels)
	i(opts.RefineIters)
	i(opts.RefinePasses)
	i(p.G)
	i(p.K)
	i(len(p.Edges))
	i(len(h.shapes))
	for _, ls := range h.shapes {
		i(ls.g)
		i(ls.e)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}
