package cp

import (
	"encoding/binary"
	"fmt"
)

// MetaEntry describes one DRAM cache slot in the metadata area's
// slot-indexed mapping table (Fig. 5, §IV-C). On power failure the firmware
// reads this table directly — ignoring the tRFC serialization rule — to
// flush valid dirty DRAM cache pages into Z-NAND (§V-C), so the format is
// part of the driver/firmware contract.
//
// Entries are packed to 4 bytes so the paper's 16 MB metadata area covers
// the ~3.9 Mi slots of a 15 GB cache: bit 31 = valid, bit 30 = dirty,
// bits 29:0 = NAND logical page (30 bits of 4 KB pages = 4 TB of media).
type MetaEntry struct {
	NANDPage uint32 // 30 bits used
	Dirty    bool
	Valid    bool
}

const (
	metaMagic      = uint32(0x4E564443) // "NVDC"
	metaHeaderSize = 16
	metaEntrySize  = 4

	validBit = uint32(1) << 31
	dirtyBit = uint32(1) << 30
	pageMask = dirtyBit - 1
)

// MaxMetaEntries returns how many slot entries fit in a metadata area of n
// bytes.
func MaxMetaEntries(n int64) int {
	if n < metaHeaderSize {
		return 0
	}
	return int((n - metaHeaderSize) / metaEntrySize)
}

// MetaSizeFor returns the metadata area size needed for n slots.
func MetaSizeFor(n int) int64 {
	return metaHeaderSize + int64(n)*metaEntrySize
}

// EncodeMeta serializes the slot-indexed table into buf.
func EncodeMeta(buf []byte, entries []MetaEntry) error {
	need := MetaSizeFor(len(entries))
	if int64(len(buf)) < need {
		return fmt.Errorf("cp: metadata buffer %d < %d", len(buf), need)
	}
	sum := metaSeed
	off := metaHeaderSize
	for i, e := range entries {
		w := e.pack()
		binary.LittleEndian.PutUint32(buf[off:], w)
		sum += metaTerm(i, w)
		off += metaEntrySize
	}
	putMetaHeader(buf, len(entries), sum)
	return nil
}

func (e MetaEntry) pack() uint32 {
	w := e.NANDPage & pageMask
	if e.Dirty {
		w |= dirtyBit
	}
	if e.Valid {
		w |= validBit
	}
	return w
}

func unpack(w uint32) MetaEntry {
	return MetaEntry{
		NANDPage: w & pageMask,
		Dirty:    w&dirtyBit != 0,
		Valid:    w&validBit != 0,
	}
}

func putMetaHeader(buf []byte, n int, sum uint64) {
	binary.LittleEndian.PutUint32(buf[0:], metaMagic)
	binary.LittleEndian.PutUint32(buf[4:], uint32(n))
	binary.LittleEndian.PutUint64(buf[8:], sum)
}

// MetaEntryOffset returns the byte offset of slot i's entry within the
// metadata area.
func MetaEntryOffset(i int) int64 {
	return metaHeaderSize + int64(i)*metaEntrySize
}

// MetaTable is an encoded slot-indexed table held in a metadata-area buffer.
// The buffer is the only copy of the table: Set rewrites one entry and folds
// the change into the header checksum, so entries and header always agree
// and DecodeMeta accepts the buffer after every Set.
type MetaTable struct {
	buf []byte
	n   int
}

// NewMetaTable formats buf as a table of n empty entries. Bytes of buf past
// the table are left untouched.
func NewMetaTable(buf []byte, n int) (*MetaTable, error) {
	if n < 0 || int64(len(buf)) < MetaSizeFor(n) {
		return nil, fmt.Errorf("cp: metadata buffer %d < %d", len(buf), MetaSizeFor(n))
	}
	clear(buf[metaHeaderSize:MetaSizeFor(n)])
	sum := metaSeed
	for i := 0; i < n; i++ {
		sum += metaTerm(i, 0)
	}
	putMetaHeader(buf, n, sum)
	return &MetaTable{buf: buf, n: n}, nil
}

// Bytes returns the buffer holding the encoded table. Writes to it bypass
// the checksum upkeep; a caller that replaces its contents must supply a
// table DecodeMeta accepts, with the same entry count.
func (t *MetaTable) Bytes() []byte { return t.buf }

// Entry returns slot i's entry.
func (t *MetaTable) Entry(i int) MetaEntry {
	return unpack(t.word(i))
}

// Set stores e as slot i's entry and updates the header checksum in O(1).
// It panics if i is not a slot of the table.
func (t *MetaTable) Set(i int, e MetaEntry) {
	old := t.word(i)
	w := e.pack()
	binary.LittleEndian.PutUint32(t.buf[MetaEntryOffset(i):], w)
	sum := binary.LittleEndian.Uint64(t.buf[8:])
	binary.LittleEndian.PutUint64(t.buf[8:], sum+metaTerm(i, w)-metaTerm(i, old))
}

func (t *MetaTable) word(i int) uint32 {
	if i < 0 || i >= t.n {
		panic(fmt.Sprintf("cp: metadata entry %d outside table of %d", i, t.n))
	}
	return binary.LittleEndian.Uint32(t.buf[MetaEntryOffset(i):])
}

// DecodeMeta parses a metadata area. It verifies the magic and checksum so a
// torn or never-written table is detected rather than replayed.
func DecodeMeta(buf []byte) ([]MetaEntry, error) {
	if len(buf) < metaHeaderSize {
		return nil, fmt.Errorf("cp: metadata area %d bytes too small", len(buf))
	}
	if binary.LittleEndian.Uint32(buf[0:]) != metaMagic {
		return nil, fmt.Errorf("cp: metadata magic missing")
	}
	n := int(binary.LittleEndian.Uint32(buf[4:]))
	want := binary.LittleEndian.Uint64(buf[8:])
	if MetaSizeFor(n) > int64(len(buf)) {
		return nil, fmt.Errorf("cp: metadata claims %d entries beyond area", n)
	}
	entries := make([]MetaEntry, n)
	sum := metaSeed
	off := metaHeaderSize
	for i := range entries {
		w := binary.LittleEndian.Uint32(buf[off:])
		entries[i] = unpack(w)
		sum += metaTerm(i, w)
		off += metaEntrySize
	}
	if sum != want {
		return nil, fmt.Errorf("cp: metadata checksum mismatch (torn write?)")
	}
	return entries, nil
}

// The header checksum is position-keyed and additive:
//
//	sum = metaSeed + Σ_i mix64(i<<32 | packed_i)  (mod 2^64)
//
// Each entry contributes one term, so changing entry i moves the sum by
// mix64(i, new) - mix64(i, old) and the driver's per-mapping-change update
// costs O(1) whatever the slot count (the PoC's 16 MB area indexes ~3.9 Mi
// slots). Keying the term by position makes the sum order-sensitive: moving
// a word to another slot changes it. mix64 is a bijection, so a single
// changed entry — or an entry written without its header, or a header
// rolled back alone — always changes the sum and DecodeMeta rejects it.
const metaSeed = uint64(1469598103934665603)

func metaTerm(i int, w uint32) uint64 {
	return mix64(uint64(i)<<32 | uint64(w))
}

// mix64 is the splitmix64 finalizer: xor-shifts and odd multiplies, each
// invertible on 64-bit words, so the whole map is a bijection.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
