// Package hashtab implements the hash-table designs the paper compares
// against (Table IV): a vanilla bucket-chained NSM table, a linear-probing
// table and the Concise Hash Table of Barber et al.
// All tables store fixed-width NSM byte records whose first 8 bytes are the
// key; the remaining bytes are payload.
//
// The optimistically compressed hash table itself lives in internal/core;
// it reuses the chained directory layout defined here.
package hashtab

import "encoding/binary"

// Table is the interface shared by the designs compared in Table IV.
type Table interface {
	// Insert stores a record; rec is rowWidth bytes with the key in the
	// first 8 bytes.
	Insert(key uint64, rec []byte)
	// Lookup returns the record for key, or nil.
	Lookup(key uint64) []byte
	// MemoryBytes reports the total footprint (directory + records).
	MemoryBytes() int
	// Len returns the number of stored records.
	Len() int
}

// Chained is a bucket-chained hash table in NSM layout: a directory of
// chain heads, a per-record next link, and a dense record area. This is
// the structure of Vectorwise's join/aggregation tables that the paper
// compresses.
type Chained struct {
	heads    []int32
	next     []int32
	rows     []byte
	rowWidth int
	n        int
	mask     uint64
}

// NewChained creates a chained table for records of rowWidth bytes
// (key included), sized for capacityHint records.
func NewChained(rowWidth, capacityHint int) *Chained {
	t := &Chained{rowWidth: rowWidth}
	t.rehash(directorySize(capacityHint))
	return t
}

func directorySize(n int) int {
	size := 16
	for size < n {
		size <<= 1
	}
	return size
}

func (t *Chained) rehash(buckets int) {
	t.heads = make([]int32, buckets)
	for i := range t.heads {
		t.heads[i] = -1
	}
	t.mask = uint64(buckets - 1)
	for i := 0; i < t.n; i++ {
		h := hash64(t.key(int32(i))) & t.mask
		t.next[i] = t.heads[h]
		t.heads[h] = int32(i)
	}
}

func (t *Chained) key(rec int32) uint64 {
	return binary.LittleEndian.Uint64(t.rows[int(rec)*t.rowWidth:])
}

// Row returns the record bytes at index rec.
func (t *Chained) Row(rec int32) []byte {
	off := int(rec) * t.rowWidth
	return t.rows[off : off+t.rowWidth]
}

// Insert implements Table.
func (t *Chained) Insert(key uint64, rec []byte) {
	if t.n >= len(t.heads) {
		t.rehash(len(t.heads) * 2)
	}
	idx := int32(t.n)
	t.rows = append(t.rows, rec...)
	h := hash64(key) & t.mask
	t.next = append(t.next, t.heads[h])
	t.heads[h] = idx
	t.n++
}

// Lookup implements Table.
func (t *Chained) Lookup(key uint64) []byte {
	h := hash64(key) & t.mask
	for rec := t.heads[h]; rec >= 0; rec = t.next[rec] {
		if t.key(rec) == key {
			return t.Row(rec)
		}
	}
	return nil
}

// Len implements Table.
func (t *Chained) Len() int { return t.n }

// MemoryBytes implements Table: directory + next links + record area.
func (t *Chained) MemoryBytes() int {
	return len(t.heads)*4 + len(t.next)*4 + len(t.rows)
}

func hash64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
