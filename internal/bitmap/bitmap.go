// Package bitmap implements a compressed bitmap over uint64 keys, in the
// style of Roaring bitmaps: the key space is split into 2^16-wide chunks,
// each stored either as a sorted array of 16-bit offsets (sparse) or as a
// 1024-word bitset (dense), converting between the two as cardinality
// crosses a threshold.
//
// It is the substrate of the Sparksee-style engine, whose architecture
// the paper describes as "clusters of bitmaps": object sets, per-value
// attribute sets, and per-node incident-edge sets are all bitmaps, so
// counting is a popcount and set operations are bitwise. The same
// structure also explains that engine's weakness: operations that need
// *materialized* neighbour lists per node must decompress many bitmaps.
package bitmap

import (
	"math/bits"
	"slices"
	"sort"

	"repro/internal/slab"
)

// arrayToBitmapThreshold is the container cardinality above which a
// sorted array is converted into a dense bitset (and below which a dense
// bitset converts back on removal).
const arrayToBitmapThreshold = 4096

const wordsPerContainer = 1 << 16 / 64

type container struct {
	// Exactly one of array / words is non-nil.
	array []uint16
	words []uint64
	n     int // cardinality (maintained for both representations)
}

// Bitmap is a set of uint64 values. The zero value is an empty set ready
// for use. Containers are held by value in a slice parallel to keys —
// most bitmaps hold a single chunk — so copying one (Clone, CloneMap)
// costs a few slice copies, not a map rebuild.
type Bitmap struct {
	keys []uint64    // sorted high-bits chunk keys
	cs   []container // cs[i] is the container of chunk keys[i]
}

// New returns an empty bitmap.
func New() *Bitmap { return &Bitmap{} }

func split(x uint64) (hi uint64, lo uint16) { return x >> 16, uint16(x & 0xffff) }

// find returns the position of chunk hi in keys, or where it would be
// inserted.
func (b *Bitmap) find(hi uint64) (int, bool) {
	lo, up := 0, len(b.keys)
	for lo < up {
		mid := int(uint(lo+up) >> 1)
		if b.keys[mid] < hi {
			lo = mid + 1
		} else {
			up = mid
		}
	}
	return lo, lo < len(b.keys) && b.keys[lo] == hi
}

// container returns chunk hi's container, creating it when asked. The
// pointer is valid until the next container is created or removed.
func (b *Bitmap) container(hi uint64, create bool) *container {
	i, ok := b.find(hi)
	if ok {
		return &b.cs[i]
	}
	if !create {
		return nil
	}
	b.keys = slices.Insert(b.keys, i, hi)
	b.cs = slices.Insert(b.cs, i, container{})
	return &b.cs[i]
}

func (c *container) contains(lo uint16) bool {
	if c.words != nil {
		return c.words[lo/64]&(1<<(lo%64)) != 0
	}
	i := sort.Search(len(c.array), func(i int) bool { return c.array[i] >= lo })
	return i < len(c.array) && c.array[i] == lo
}

func (c *container) add(lo uint16) bool {
	if c.words != nil {
		w := &c.words[lo/64]
		mask := uint64(1) << (lo % 64)
		if *w&mask != 0 {
			return false
		}
		*w |= mask
		c.n++
		return true
	}
	i := sort.Search(len(c.array), func(i int) bool { return c.array[i] >= lo })
	if i < len(c.array) && c.array[i] == lo {
		return false
	}
	c.array = append(c.array, 0)
	copy(c.array[i+1:], c.array[i:])
	c.array[i] = lo
	c.n++
	if c.n > arrayToBitmapThreshold {
		c.toWords()
	}
	return true
}

func (c *container) remove(lo uint16) bool {
	if c.words != nil {
		w := &c.words[lo/64]
		mask := uint64(1) << (lo % 64)
		if *w&mask == 0 {
			return false
		}
		*w &^= mask
		c.n--
		if c.n < arrayToBitmapThreshold/2 {
			c.toArray()
		}
		return true
	}
	i := sort.Search(len(c.array), func(i int) bool { return c.array[i] >= lo })
	if i >= len(c.array) || c.array[i] != lo {
		return false
	}
	copy(c.array[i:], c.array[i+1:])
	c.array = c.array[:len(c.array)-1]
	c.n--
	return true
}

func (c *container) toWords() {
	c.words = make([]uint64, wordsPerContainer)
	for _, lo := range c.array {
		c.words[lo/64] |= 1 << (lo % 64)
	}
	c.array = nil
}

func (c *container) toArray() {
	c.array = make([]uint16, 0, c.n)
	for wi, w := range c.words {
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			c.array = append(c.array, uint16(wi*64+bit))
			w &^= 1 << bit
		}
	}
	c.words = nil
}

// Add inserts x, reporting whether it was absent.
func (b *Bitmap) Add(x uint64) bool {
	hi, lo := split(x)
	return b.container(hi, true).add(lo)
}

// Remove deletes x, reporting whether it was present.
func (b *Bitmap) Remove(x uint64) bool {
	hi, lo := split(x)
	c := b.container(hi, false)
	if c == nil {
		return false
	}
	ok := c.remove(lo)
	if ok && c.n == 0 {
		i, _ := b.find(hi)
		b.keys = slices.Delete(b.keys, i, i+1)
		b.cs = slices.Delete(b.cs, i, i+1)
	}
	return ok
}

// Contains reports membership of x.
func (b *Bitmap) Contains(x uint64) bool {
	hi, lo := split(x)
	c := b.container(hi, false)
	return c != nil && c.contains(lo)
}

// Len returns the cardinality. This is the popcount-style O(#containers)
// operation behind the Sparksee engine's fast counting queries.
func (b *Bitmap) Len() int {
	n := 0
	for i := range b.cs {
		n += b.cs[i].n
	}
	return n
}

// IsEmpty reports whether the set has no elements.
func (b *Bitmap) IsEmpty() bool { return b.Len() == 0 }

// Iterate calls fn on each element in ascending order until fn returns
// false.
func (b *Bitmap) Iterate(fn func(x uint64) bool) {
	for i, hi := range b.keys {
		c := &b.cs[i]
		base := hi << 16
		if c.words != nil {
			for wi, w := range c.words {
				for w != 0 {
					bit := bits.TrailingZeros64(w)
					if !fn(base | uint64(wi*64+bit)) {
						return
					}
					w &^= 1 << bit
				}
			}
		} else {
			for _, lo := range c.array {
				if !fn(base | uint64(lo)) {
					return
				}
			}
		}
	}
}

// Slice materializes the set in ascending order.
func (b *Bitmap) Slice() []uint64 {
	out := make([]uint64, 0, b.Len())
	b.Iterate(func(x uint64) bool { out = append(out, x); return true })
	return out
}

// Min returns the smallest element; ok is false when the set is empty.
func (b *Bitmap) Min() (uint64, bool) {
	var min uint64
	found := false
	b.Iterate(func(x uint64) bool { min, found = x, true; return false })
	return min, found
}

// And returns the intersection of b and o as a new bitmap.
func (b *Bitmap) And(o *Bitmap) *Bitmap {
	out := New()
	small, large := b, o
	if small.Len() > large.Len() {
		small, large = large, small
	}
	small.Iterate(func(x uint64) bool {
		if large.Contains(x) {
			out.Add(x)
		}
		return true
	})
	return out
}

// Or returns the union of b and o as a new bitmap.
func (b *Bitmap) Or(o *Bitmap) *Bitmap {
	out := New()
	b.Iterate(func(x uint64) bool { out.Add(x); return true })
	o.Iterate(func(x uint64) bool { out.Add(x); return true })
	return out
}

// AndLen returns the intersection cardinality without materializing it.
func (b *Bitmap) AndLen(o *Bitmap) int {
	small, large := b, o
	if small.Len() > large.Len() {
		small, large = large, small
	}
	n := 0
	small.Iterate(func(x uint64) bool {
		if large.Contains(x) {
			n++
		}
		return true
	})
	return n
}

// Bytes approximates the memory footprint, for space accounting.
func (b *Bitmap) Bytes() int64 {
	var n int64 = 48
	for i := range b.cs {
		c := &b.cs[i]
		n += 40
		if c.words != nil {
			n += wordsPerContainer * 8
		} else {
			n += int64(len(c.array)) * 2
		}
	}
	n += int64(len(b.keys)) * 8
	return n
}

// Clone returns an independent copy of b.
func (b *Bitmap) Clone() *Bitmap {
	d := &Bitmap{}
	newArena(b).copy(d, b)
	return d
}

// CloneMap returns a copy of m whose values are independent copies of
// m's bitmaps. All the copies share a handful of allocations — their
// Bitmap headers, chunk keys, containers and sparse arrays — instead
// of a few per bitmap, which is what makes copying an engine that holds
// one small bitmap per vertex cheap. Every copied slice keeps its
// source's capacity (see slab.Slab).
func CloneMap[K comparable](m map[K]*Bitmap) map[K]*Bitmap {
	ks := make([]K, 0, len(m))
	bs := make([]*Bitmap, 0, len(m))
	for k, b := range m {
		ks = append(ks, k)
		bs = append(bs, b)
	}
	a := newArena(bs...)
	ds := make([]Bitmap, len(bs))
	out := make(map[K]*Bitmap, len(bs))
	for i, b := range bs {
		a.copy(&ds[i], b)
		out[ks[i]] = &ds[i]
	}
	return out
}

// arena holds the slabs the copies of a set of bitmaps are carved from.
type arena struct {
	keys *slab.Slab[uint64]
	cs   *slab.Slab[container]
	arr  *slab.Slab[uint16]
}

func newArena(bs ...*Bitmap) arena {
	var nKeys, nCs, nArr int
	for _, b := range bs {
		nKeys += cap(b.keys)
		nCs += cap(b.cs)
		for i := range b.cs {
			nArr += cap(b.cs[i].array)
		}
	}
	return arena{slab.New[uint64](nKeys), slab.New[container](nCs), slab.New[uint16](nArr)}
}

func (a arena) copy(d, b *Bitmap) {
	d.keys = a.keys.Copy(b.keys)
	d.cs = a.cs.Copy(b.cs)
	for i := range d.cs {
		c := &d.cs[i]
		if c.words != nil {
			c.words = slices.Clone(c.words)
		} else {
			c.array = a.arr.Copy(c.array)
		}
	}
}
