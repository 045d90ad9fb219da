// Package snapshot is the versioned binary container format for engine
// checkpoints: step-boundary serializations of a full run state that restore
// byte-identically in a fresh process (see sim.SaveState / sim.Restore).
//
// A snapshot is a sequence of named, length-prefixed sections behind a magic
// header. The engine writes its whole state (config, rng states, round
// tracker, frontier, churn, scheduler, metrics) into one section with the
// primitives of Enc/Dec. Unknown sections are preserved by Read so callers
// can attach their own (e.g. run metadata) without the container caring.
//
// The format favors simplicity and restore speed over size: scalars and
// word slices are fixed-width little-endian, int sequences are zigzag
// varint deltas (a byte or two per element for offsets, sorted neighbor
// lists and states), there is no compression, and reads are whole-snapshot.
// A 10^5-node AU snapshot is about 1 MB, two thirds of it the CSR topology,
// which sim.Engine.SaveState encodes once and reuses until the graph
// changes: a later save of a 10^5-node engine takes 1.3–1.7 ms, against
// 7.6–9.6 ms when every save encoded everything through a call per element
// (BenchmarkSaveState in internal/sim, 100 saves, three runs, 2-vCPU Xeon,
// Go 1.24).
package snapshot

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// Version is the container format version, bumped on incompatible layout
// changes. Readers reject snapshots from a different version rather than
// guessing: a checkpoint is a correctness artifact, not a best-effort cache.
//
// Version 2 added a CRC-32C checksum over name||payload to every section
// prefix and an exact-EOF check after the last section, so any corruption of
// a stored snapshot — bit rot, torn writes, truncation, trailing garbage —
// is detected at Read instead of silently restoring a wrong run state.
//
// Version 3 dropped the word runtime's per-step verdict from the engine
// section and shrank the GoodMonitor section to (raw mirror, deferred flag,
// witnesses).
//
// Version 4 stores every checkpointed rng stream as its generator state
// (randx.Source) instead of a (seed, draw count) cursor, and encodes int
// sequences as zigzag varint deltas instead of 8-byte words.
//
// Version 5 retired the "syncsim" engine section: procedural programs run
// on the asyncsim engine at every p, so its section gained p and, at
// p >= 1, the shard starts and the churn weight.
//
// Version 6 retired intra-run sharding: both engine sections replace p, the
// shard starts and the churn weight with one per-node-coins flag, the sim
// section stores one goodness plane instead of a per-lane slab count and
// slabs, and the metric word vector drops the boundary-apply and
// repartition counters.
//
// Version 7 gave the sim engine one coin stream: its section drops the run
// seed and the per-node-coins flag, which only the retired per-(step, node)
// reseed read. The asyncsim section is unchanged.
//
// Version 8 dropped the demotion counter from the metric word vector of both
// engine sections (obs.SnapshotWords 22 → 21), with the demotion ladder it
// counted.
//
// Version 9 left the sim section as the one engine checkpoint (the asyncsim
// section and the GoodMonitor section were retired with their codecs) and
// cut its round-tracker blob to (rounds, pending node, stamps): the
// 4096-entry boundary ring, the step count and the missing-node count are
// gone, the last derived from the stamps on restore.
//
// Version 10 dropped derived and dead state from the sim section: a word
// engine's goodness plane (rebuilt from the configuration on restore) and
// the churn section's scripted event list and its cursor (the scripted
// churn language is gone; churn is the stochastic stream only).
const Version = 10

// magic identifies a snapshot stream ("ThinUnison SNAPshot").
var magic = [8]byte{'T', 'U', 'S', 'N', 'A', 'P', '0', '1'}

// maxSectionSize bounds a single section (1 GiB) so a corrupt length prefix
// fails fast instead of attempting a huge allocation.
const maxSectionSize = 1 << 30

// Section is one named payload of a snapshot.
type Section struct {
	Name string
	Data []byte
}

// Write emits the container: magic, version, section count, then each
// section as (name length, CRC-32C of name||payload, payload length, name,
// payload), all fixed-width little-endian.
func Write(w io.Writer, sections []Section) error {
	var hdr [20]byte
	copy(hdr[:8], magic[:])
	binary.LittleEndian.PutUint32(hdr[8:12], Version)
	binary.LittleEndian.PutUint64(hdr[12:20], uint64(len(sections)))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("snapshot: write header: %w", err)
	}
	var pfx [16]byte
	for _, s := range sections {
		if len(s.Name) == 0 || len(s.Name) > 255 {
			return fmt.Errorf("snapshot: bad section name %q", s.Name)
		}
		binary.LittleEndian.PutUint32(pfx[:4], uint32(len(s.Name)))
		binary.LittleEndian.PutUint32(pfx[4:8], sectionCRC(s.Name, s.Data))
		binary.LittleEndian.PutUint64(pfx[8:16], uint64(len(s.Data)))
		if _, err := w.Write(pfx[:]); err != nil {
			return fmt.Errorf("snapshot: write section %s: %w", s.Name, err)
		}
		if _, err := io.WriteString(w, s.Name); err != nil {
			return fmt.Errorf("snapshot: write section %s: %w", s.Name, err)
		}
		if _, err := w.Write(s.Data); err != nil {
			return fmt.Errorf("snapshot: write section %s: %w", s.Name, err)
		}
	}
	return nil
}

// Read parses a container written by Write, returning the sections by name.
// It validates magic, version and every section's CRC, and rejects
// truncated, oversized, corrupted or trailing-garbage input.
func Read(r io.Reader) (map[string][]byte, error) {
	var hdr [20]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("snapshot: read header: %w", err)
	}
	if [8]byte(hdr[:8]) != magic {
		return nil, fmt.Errorf("snapshot: bad magic (not a snapshot file)")
	}
	if v := binary.LittleEndian.Uint32(hdr[8:12]); v != Version {
		return nil, fmt.Errorf("snapshot: format version %d, want %d", v, Version)
	}
	count := binary.LittleEndian.Uint64(hdr[12:20])
	if count > 1<<16 {
		return nil, fmt.Errorf("snapshot: implausible section count %d", count)
	}
	out := make(map[string][]byte, count)
	var pfx [16]byte
	for i := uint64(0); i < count; i++ {
		if _, err := io.ReadFull(r, pfx[:]); err != nil {
			return nil, fmt.Errorf("snapshot: read section prefix: %w", err)
		}
		nameLen := binary.LittleEndian.Uint32(pfx[:4])
		crc := binary.LittleEndian.Uint32(pfx[4:8])
		dataLen := binary.LittleEndian.Uint64(pfx[8:16])
		if nameLen == 0 || nameLen > 255 || dataLen > maxSectionSize {
			return nil, fmt.Errorf("snapshot: corrupt section prefix (name %d, data %d)", nameLen, dataLen)
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(r, name); err != nil {
			return nil, fmt.Errorf("snapshot: read section name: %w", err)
		}
		data := make([]byte, dataLen)
		if _, err := io.ReadFull(r, data); err != nil {
			return nil, fmt.Errorf("snapshot: read section %s: %w", name, err)
		}
		if got := sectionCRC(string(name), data); got != crc {
			return nil, fmt.Errorf("snapshot: section %s checksum mismatch (stored %08x, computed %08x)", name, crc, got)
		}
		if _, dup := out[string(name)]; dup {
			return nil, fmt.Errorf("snapshot: duplicate section %s", name)
		}
		out[string(name)] = data
	}
	// A snapshot is a whole-file artifact: anything after the last section is
	// corruption (e.g. a torn rewrite of a shorter snapshot over a longer one).
	var one [1]byte
	if _, err := io.ReadFull(r, one[:]); err != io.EOF {
		return nil, fmt.Errorf("snapshot: trailing bytes after final section")
	}
	return out, nil
}

// crcTable is the Castagnoli polynomial, hardware-accelerated on the
// platforms the campaigns run on.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// sectionCRC is the per-section checksum: CRC-32C over name then payload,
// binding the payload to its name so swapped sections are also detected.
func sectionCRC(name string, data []byte) uint32 {
	c := crc32.Checksum([]byte(name), crcTable)
	return crc32.Update(c, crcTable, data)
}

// Enc builds a section payload: fixed-width little-endian scalars and word
// slices, varint-delta int sequences. The zero value is ready to use.
type Enc struct {
	buf []byte
}

// Bytes returns the encoded payload.
func (e *Enc) Bytes() []byte { return e.buf }

// U64 appends one unsigned 64-bit word.
func (e *Enc) U64(v uint64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}

// I64 appends one signed 64-bit word.
func (e *Enc) I64(v int64) { e.U64(uint64(v)) }

// Int appends one int as a 64-bit word.
func (e *Enc) Int(v int) { e.U64(uint64(int64(v))) }

// Bool appends a boolean as one byte.
func (e *Enc) Bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	e.buf = append(e.buf, b)
}

// U64s appends a length-prefixed []uint64.
func (e *Enc) U64s(v []uint64) {
	e.Int(len(v))
	for _, x := range v {
		e.U64(x)
	}
}

// Ints appends a length-prefixed []int. Each element is stored as the
// zigzag varint of its difference from the previous one (wrapping), so the
// small, slowly varying sequences of a checkpoint — offsets, sorted
// neighbor lists, states — take a byte or two per element instead of
// eight. The varints are written in one pass, with room made up front for
// a byte per element and no call per element; a caller that sized the
// payload with Grow pays no regrowth. Besides the topology, a save of a
// 10^5-node engine runs some 2·10^5 elements through Ints, and the whole
// save takes 1.3–1.7 ms (see the package doc).
func (e *Enc) Ints(v []int) {
	e.Int(len(v))
	buf, prev := slices.Grow(e.buf, len(v)), 0
	for _, x := range v {
		u := zigzag(x - prev)
		prev = x
		for u >= 0x80 {
			buf = append(buf, byte(u)|0x80)
			u >>= 7
		}
		buf = append(buf, byte(u))
	}
	e.buf = buf
}

// Flags appends one flag per element of v, set where the element equals
// mark, as the sequence of 0s and 1s Ints would write, which Dec.Ints reads
// back. It serializes a set kept as stamps (its members hold the current
// stamp) in one pass, without an intermediate []int or a call per element;
// each flag takes one byte.
func (e *Enc) Flags(v []int, mark int) {
	e.Int(len(v))
	buf, prev := slices.Grow(e.buf, len(v)), 0
	for _, s := range v {
		x := 0
		if s == mark {
			x = 1
		}
		buf = append(buf, byte(zigzag(x-prev)))
		prev = x
	}
	e.buf = buf
}

// Grow makes room for n more payload bytes, so a caller that knows about
// how large its payload gets allocates it once.
func (e *Enc) Grow(n int) { e.buf = slices.Grow(e.buf, n) }

// Raw appends p verbatim. p must be what another Enc wrote for a run of
// fields, so a caller can encode fields that rarely change once and reuse
// the bytes.
func (e *Enc) Raw(p []byte) { e.buf = append(e.buf, p...) }

// zigzag maps a signed delta to an unsigned one with small magnitudes of
// either sign staying small: 0, −1, 1, −2, … ↦ 0, 1, 2, 3, ….
func zigzag(d int) uint64 {
	return uint64(int64(d)<<1) ^ uint64(int64(d)>>63)
}

// Blob appends a length-prefixed byte blob.
func (e *Enc) Blob(v []byte) {
	e.Int(len(v))
	e.buf = append(e.buf, v...)
}

// Dec reads back what Enc wrote. Errors are sticky: after the first
// malformed read every getter returns a zero value, and Err reports the
// failure, so decode paths can run straight-line and check once.
type Dec struct {
	buf []byte
	off int
	err error
}

// NewDec returns a decoder over payload.
func NewDec(payload []byte) *Dec { return &Dec{buf: payload} }

// Err returns the first decode error, if any.
func (d *Dec) Err() error { return d.err }

// Done reports an error unless the payload was consumed exactly.
func (d *Dec) Done() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("snapshot: %d trailing bytes in section", len(d.buf)-d.off)
	}
	return nil
}

func (d *Dec) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("snapshot: truncated section (offset %d of %d)", d.off, len(d.buf))
	}
}

// U64 reads one unsigned 64-bit word.
func (d *Dec) U64() uint64 {
	if d.err != nil || d.off+8 > len(d.buf) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

// I64 reads one signed 64-bit word.
func (d *Dec) I64() int64 { return int64(d.U64()) }

// Int reads one int-sized word.
func (d *Dec) Int() int { return int(d.I64()) }

// Bool reads one boolean byte, which must be 0 or 1 (what Enc.Bool writes).
func (d *Dec) Bool() bool {
	if d.err != nil || d.off >= len(d.buf) {
		d.fail()
		return false
	}
	b := d.buf[d.off]
	if b > 1 {
		d.err = fmt.Errorf("snapshot: boolean byte %d at offset %d", b, d.off)
		return false
	}
	d.off++
	return b == 1
}

// length reads a non-negative length prefix bounded by the remaining bytes
// divided by elemSize, the fewest bytes one element encodes to, guarding
// against corrupt prefixes.
func (d *Dec) length(elemSize int) int {
	n := d.Int()
	if d.err != nil {
		return 0
	}
	if n < 0 || (elemSize > 0 && n > (len(d.buf)-d.off)/elemSize) {
		if d.err == nil {
			d.err = fmt.Errorf("snapshot: corrupt length prefix %d", n)
		}
		return 0
	}
	return n
}

// U64s reads a length-prefixed []uint64.
func (d *Dec) U64s() []uint64 {
	n := d.length(8)
	if d.err != nil {
		return nil
	}
	v := make([]uint64, n)
	for i := range v {
		v[i] = d.U64()
	}
	return v
}

// Ints reads a length-prefixed []int written by Enc.Ints.
func (d *Dec) Ints() []int {
	n := d.length(1) // every varint takes at least one byte
	if d.err != nil {
		return nil
	}
	v := make([]int, n)
	x := 0
	for i := range v {
		u, ok := d.uvarint()
		if !ok {
			return nil
		}
		x += unzigzag(u)
		v[i] = x
	}
	return v
}

// uvarint reads one unsigned varint, failing on truncation and on
// encodings that overflow 64 bits.
func (d *Dec) uvarint() (uint64, bool) {
	u, k := binary.Uvarint(d.buf[d.off:])
	if k <= 0 {
		if k == 0 {
			d.fail()
		} else if d.err == nil {
			d.err = fmt.Errorf("snapshot: varint overflows 64 bits at offset %d", d.off)
		}
		return 0, false
	}
	d.off += k
	return u, true
}

// unzigzag inverts zigzag.
func unzigzag(u uint64) int { return int(int64(u>>1) ^ -int64(u&1)) }

// Blob reads a length-prefixed byte blob (a copy).
func (d *Dec) Blob() []byte {
	n := d.length(1)
	if d.err != nil {
		return nil
	}
	v := make([]byte, n)
	copy(v, d.buf[d.off:])
	d.off += n
	return v
}
