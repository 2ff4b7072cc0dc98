package cp

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMetaRoundTrip(t *testing.T) {
	entries := []MetaEntry{
		{NANDPage: 100, Dirty: true, Valid: true},
		{NANDPage: 200, Dirty: false, Valid: true},
		{NANDPage: 0, Dirty: false, Valid: false},
	}
	buf := make([]byte, 4096)
	if err := EncodeMeta(buf, entries); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeMeta(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(entries) {
		t.Fatalf("decoded %d entries, want %d", len(got), len(entries))
	}
	for i := range got {
		if got[i] != entries[i] {
			t.Fatalf("entry %d: got %+v want %+v", i, got[i], entries[i])
		}
	}
}

func TestMetaDetectsUninitialized(t *testing.T) {
	if _, err := DecodeMeta(make([]byte, 4096)); err == nil {
		t.Fatal("zeroed metadata accepted")
	}
}

func TestMetaDetectsCorruption(t *testing.T) {
	buf := make([]byte, 4096)
	if err := EncodeMeta(buf, []MetaEntry{{NANDPage: 9, Valid: true}}); err != nil {
		t.Fatal(err)
	}
	buf[metaHeaderSize] ^= 0xFF
	if _, err := DecodeMeta(buf); err == nil {
		t.Fatal("corrupted metadata accepted")
	}
}

func TestMetaBufferTooSmall(t *testing.T) {
	if err := EncodeMeta(make([]byte, 10), make([]MetaEntry, 4)); err == nil {
		t.Fatal("tiny buffer accepted")
	}
	if _, err := DecodeMeta(make([]byte, 4)); err == nil {
		t.Fatal("tiny decode accepted")
	}
}

func TestMaxMetaEntries(t *testing.T) {
	// The paper's 16 MB metadata area must cover the ~3.9 Mi slots of the
	// PoC's 15 GB cache (§IV-B, §V-C).
	if got := MaxMetaEntries(16 << 20); got < (15<<30)/4096 {
		t.Fatalf("16 MB metadata holds only %d entries, need %d", got, (15<<30)/4096)
	}
	if MaxMetaEntries(4) != 0 {
		t.Fatal("tiny area reports entries")
	}
}

func TestIncrementalUpdateMatchesFullEncode(t *testing.T) {
	entries := make([]MetaEntry, 32)
	full := make([]byte, MetaSizeFor(len(entries)))
	tab, err := NewMetaTable(make([]byte, MetaSizeFor(len(entries))), len(entries))
	if err != nil {
		t.Fatal(err)
	}
	if err := EncodeMeta(full, entries); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(full, tab.Bytes()) {
		t.Fatal("empty table differs from full encode")
	}
	// Mutate entry 7 both ways.
	entries[7] = MetaEntry{NANDPage: 1234, Dirty: true, Valid: true}
	if err := EncodeMeta(full, entries); err != nil {
		t.Fatal(err)
	}
	tab.Set(7, entries[7])
	if !bytes.Equal(full, tab.Bytes()) {
		t.Fatal("incremental update differs from full encode")
	}
	if _, err := DecodeMeta(tab.Bytes()); err != nil {
		t.Fatal(err)
	}
}

func TestMetaTableSetBounds(t *testing.T) {
	tab, err := NewMetaTable(make([]byte, MetaSizeFor(2)), 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{-1, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("out-of-range entry %d accepted", i)
				}
			}()
			tab.Set(i, MetaEntry{})
		}()
	}
	if _, err := NewMetaTable(make([]byte, MetaSizeFor(2)-1), 2); err == nil {
		t.Fatal("undersized table buffer accepted")
	}
}

// TestMetaTableChecksumProperty drives random Set sequences and checks after
// every call that the O(1) header update equals a full recompute, and that
// DecodeMeta rejects every torn variant: one entry word flipped, or the
// header rolled back without its entry.
func TestMetaTableChecksumProperty(t *testing.T) {
	const n = 4096
	rng := rand.New(rand.NewSource(1))
	tab, err := NewMetaTable(make([]byte, MetaSizeFor(n)), n)
	if err != nil {
		t.Fatal(err)
	}
	shadow := make([]MetaEntry, n)
	full := make([]byte, MetaSizeFor(n))
	torn := make([]byte, MetaSizeFor(n))
	for step := 0; step < 2000; step++ {
		i := rng.Intn(n)
		e := MetaEntry{NANDPage: rng.Uint32() & pageMask, Dirty: rng.Intn(2) == 0, Valid: rng.Intn(2) == 0}
		var before [metaHeaderSize]byte
		copy(before[:], tab.Bytes())
		changed := tab.Entry(i) != e
		tab.Set(i, e)
		shadow[i] = e

		if err := EncodeMeta(full, shadow); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(full, tab.Bytes()) {
			t.Fatalf("step %d: table differs from full recompute", step)
		}
		if _, err := DecodeMeta(tab.Bytes()); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if got := tab.Entry(i); got != e {
			t.Fatalf("step %d: entry %d = %+v, want %+v", step, i, got, e)
		}

		// Any single flipped bit in any entry word must be rejected.
		copy(torn, tab.Bytes())
		j := rng.Intn(n)
		torn[MetaEntryOffset(j)+int64(rng.Intn(metaEntrySize))] ^= 1 << uint(rng.Intn(8))
		if _, err := DecodeMeta(torn); err == nil {
			t.Fatalf("step %d: flipped entry %d accepted", step, j)
		}
		// The entry landed but its header write did not.
		if changed {
			copy(torn, tab.Bytes())
			copy(torn, before[:])
			if _, err := DecodeMeta(torn); err == nil {
				t.Fatalf("step %d: entry %d without its header accepted", step, i)
			}
		}
	}
}

// BenchmarkMetaSet times one mapping-change update of the metadata table.
// Its cost must not grow with the slot count.
func BenchmarkMetaSet(b *testing.B) {
	for _, n := range []int{4 << 10, 1 << 20} {
		b.Run(fmt.Sprintf("slots=%d", n), func(b *testing.B) {
			tab, err := NewMetaTable(make([]byte, MetaSizeFor(n)), n)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				slot := (i * 7919) % n
				tab.Set(slot, MetaEntry{NANDPage: uint32(i), Valid: true, Dirty: i&1 == 0})
			}
		})
	}
}

func TestMetaRoundTripProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) > 500 {
			raw = raw[:500]
		}
		entries := make([]MetaEntry, len(raw))
		for i, v := range raw {
			entries[i] = MetaEntry{
				NANDPage: v & pageMask,
				Dirty:    v&1 != 0,
				Valid:    v&2 != 0,
			}
		}
		buf := make([]byte, MetaSizeFor(len(entries)))
		if err := EncodeMeta(buf, entries); err != nil {
			return false
		}
		got, err := DecodeMeta(buf)
		if err != nil || len(got) != len(entries) {
			return false
		}
		for i := range got {
			if got[i] != entries[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
