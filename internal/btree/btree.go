// Package btree implements an in-memory B+Tree over []byte keys with
// []byte values, ordered lexicographically (bytes.Compare).
//
// It is the index substrate for the engines that the paper describes as
// B+Tree-based: the BlazeGraph-style triple store builds its SPO/POS/OSP
// statement indexes on it, and the Sqlg-style relational engine builds
// its primary-key and foreign-key indexes on it. The tree keeps leaves in
// a doubly-linked list so range scans (prefix scans over triples, index
// range lookups) stream in key order without re-descending.
//
// The structure deliberately pays the costs the paper attributes to the
// architecture: every insertion rebalances eagerly (node splits propagate
// up immediately), which is why the triple store's per-statement loading
// is slow unless its bulk path is used (see BulkBuild).
package btree

import (
	"bytes"
	"fmt"

	"repro/internal/slab"
)

// degree is the maximum number of children of an internal node. 32 keeps
// node scans within a cache line or two while producing realistic depth.
const degree = 32

const (
	maxKeys = degree - 1
	minKeys = maxKeys / 2
)

type leaf struct {
	keys       [][]byte
	vals       [][]byte
	next, prev *leaf
}

type inner struct {
	keys     [][]byte // len(children)-1 separators
	children []node
}

type node interface{ isNode() }

func (*leaf) isNode()  {}
func (*inner) isNode() {}

// Tree is a B+Tree. The zero value is not usable; call New.
type Tree struct {
	root  node
	first *leaf // leftmost leaf, head of the scan list
	size  int
	bytes int64 // space accounting: key+value payload plus node overhead
}

// New returns an empty tree.
func New() *Tree {
	l := &leaf{}
	return &Tree{root: l, first: l}
}

// Len returns the number of stored keys.
func (t *Tree) Len() int { return t.size }

// Bytes returns an approximation of the memory footprint of the tree:
// payload bytes plus per-entry and per-node overhead. It backs the space
// occupancy experiment (Figure 1).
func (t *Tree) Bytes() int64 { return t.bytes }

func (t *Tree) payload(k, v []byte) int64 { return int64(len(k)+len(v)) + 48 }

// Get returns the value stored under key, or nil and false.
func (t *Tree) Get(key []byte) ([]byte, bool) {
	l, _ := t.findLeaf(key)
	i, ok := l.search(key)
	if !ok {
		return nil, false
	}
	return l.vals[i], true
}

// Has reports whether key is present.
func (t *Tree) Has(key []byte) bool {
	_, ok := t.Get(key)
	return ok
}

func (l *leaf) search(key []byte) (int, bool) {
	lo, hi := 0, len(l.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(l.keys[mid], key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(l.keys) && bytes.Equal(l.keys[lo], key)
}

func (in *inner) childIndex(key []byte) int {
	lo, hi := 0, len(in.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(in.keys[mid], key) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// findLeaf descends to the leaf that owns key, recording the path of
// inner nodes and child indexes for rebalancing.
func (t *Tree) findLeaf(key []byte) (*leaf, []pathElem) {
	var path []pathElem
	n := t.root
	for {
		switch x := n.(type) {
		case *leaf:
			return x, path
		case *inner:
			i := x.childIndex(key)
			path = append(path, pathElem{x, i})
			n = x.children[i]
		}
	}
}

type pathElem struct {
	n   *inner
	idx int
}

// Put inserts key→value, replacing any existing value. It returns true
// if the key was new.
func (t *Tree) Put(key, value []byte) bool {
	l, path := t.findLeaf(key)
	i, ok := l.search(key)
	if ok {
		t.bytes += int64(len(value) - len(l.vals[i]))
		l.vals[i] = value
		return false
	}
	l.keys = insertAt(l.keys, i, key)
	l.vals = insertAt(l.vals, i, value)
	t.size++
	t.bytes += t.payload(key, value)
	if len(l.keys) > maxKeys {
		t.splitLeaf(l, path)
	}
	return true
}

func insertAt[T any](s []T, i int, v T) []T {
	s = append(s, v)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func removeAt[T any](s []T, i int) []T {
	copy(s[i:], s[i+1:])
	var zero T
	s[len(s)-1] = zero
	return s[:len(s)-1]
}

func (t *Tree) splitLeaf(l *leaf, path []pathElem) {
	mid := len(l.keys) / 2
	right := &leaf{
		keys: append([][]byte(nil), l.keys[mid:]...),
		vals: append([][]byte(nil), l.vals[mid:]...),
		next: l.next,
		prev: l,
	}
	if l.next != nil {
		l.next.prev = right
	}
	l.next = right
	l.keys = l.keys[:mid:mid]
	l.vals = l.vals[:mid:mid]
	t.bytes += 96 // new node overhead
	t.insertIntoParent(path, right.keys[0], l, right)
}

func (t *Tree) insertIntoParent(path []pathElem, sep []byte, left, right node) {
	if len(path) == 0 {
		t.root = &inner{keys: [][]byte{sep}, children: []node{left, right}}
		t.bytes += 96
		return
	}
	pe := path[len(path)-1]
	p := pe.n
	p.keys = insertAt(p.keys, pe.idx, sep)
	p.children = insertAt(p.children, pe.idx+1, right)
	if len(p.children) > degree {
		t.splitInner(p, path[:len(path)-1])
	}
}

func (t *Tree) splitInner(in *inner, path []pathElem) {
	mid := len(in.keys) / 2
	sep := in.keys[mid]
	right := &inner{
		keys:     append([][]byte(nil), in.keys[mid+1:]...),
		children: append([]node(nil), in.children[mid+1:]...),
	}
	in.keys = in.keys[:mid:mid]
	in.children = in.children[: mid+1 : mid+1]
	t.bytes += 96
	t.insertIntoParent(path, sep, in, right)
}

// Delete removes key. It returns true if the key was present.
//
// Rebalancing on delete uses borrowing/merging of leaves; inner nodes are
// allowed to become sparse (a common implementation simplification that
// preserves ordering invariants and amortized performance).
func (t *Tree) Delete(key []byte) bool {
	l, path := t.findLeaf(key)
	i, ok := l.search(key)
	if !ok {
		return false
	}
	t.bytes -= t.payload(key, l.vals[i])
	l.keys = removeAt(l.keys, i)
	l.vals = removeAt(l.vals, i)
	t.size--
	if len(l.keys) >= minKeys || len(path) == 0 {
		return true
	}
	t.rebalanceLeaf(l, path)
	return true
}

func (t *Tree) rebalanceLeaf(l *leaf, path []pathElem) {
	pe := path[len(path)-1]
	p, idx := pe.n, pe.idx
	// Borrow from the right sibling when possible.
	if idx+1 < len(p.children) {
		r := p.children[idx+1].(*leaf)
		if len(r.keys) > minKeys {
			l.keys = append(l.keys, r.keys[0])
			l.vals = append(l.vals, r.vals[0])
			r.keys = removeAt(r.keys, 0)
			r.vals = removeAt(r.vals, 0)
			p.keys[idx] = r.keys[0]
			return
		}
	}
	// Borrow from the left sibling.
	if idx > 0 {
		lft := p.children[idx-1].(*leaf)
		if len(lft.keys) > minKeys {
			last := len(lft.keys) - 1
			l.keys = insertAt(l.keys, 0, lft.keys[last])
			l.vals = insertAt(l.vals, 0, lft.vals[last])
			lft.keys = lft.keys[:last]
			lft.vals = lft.vals[:last]
			p.keys[idx-1] = l.keys[0]
			return
		}
	}
	// Merge with a sibling.
	if idx+1 < len(p.children) {
		r := p.children[idx+1].(*leaf)
		l.keys = append(l.keys, r.keys...)
		l.vals = append(l.vals, r.vals...)
		l.next = r.next
		if r.next != nil {
			r.next.prev = l
		}
		p.keys = removeAt(p.keys, idx)
		p.children = removeAt(p.children, idx+1)
	} else if idx > 0 {
		lft := p.children[idx-1].(*leaf)
		lft.keys = append(lft.keys, l.keys...)
		lft.vals = append(lft.vals, l.vals...)
		lft.next = l.next
		if l.next != nil {
			l.next.prev = lft
		}
		p.keys = removeAt(p.keys, idx-1)
		p.children = removeAt(p.children, idx)
	}
	t.bytes -= 96
	t.collapseRoot(path)
}

// collapseRoot shrinks the tree height when the root lost all separators.
func (t *Tree) collapseRoot(path []pathElem) {
	if r, ok := t.root.(*inner); ok && len(r.children) == 1 {
		t.root = r.children[0]
		t.bytes -= 96
	}
	_ = path
}

// Clone returns an independent copy of the tree with the source's exact
// shape and slice capacities, so its space accounting and every later
// split, borrow, merge and reallocation match the source's. The node
// structure is copied; the key and value byte slices are shared,
// because the tree never writes through them — Put replaces a value
// slice, it does not modify it. Callers must likewise never modify
// bytes they passed to Put or got from Get. The leaves and their key
// and value slots come from two allocations.
func (t *Tree) Clone() *Tree {
	c := &Tree{size: t.size, bytes: t.bytes}
	n, slots := 0, 0
	for l := t.first; l != nil; l = l.next {
		n++
		slots += cap(l.keys) + cap(l.vals)
	}
	leaves := make([]leaf, n)
	sl := slab.New[[]byte](slots)
	var prev *leaf
	var clone func(node) node
	clone = func(n node) node {
		switch x := n.(type) {
		case *leaf:
			l := &leaves[0]
			leaves = leaves[1:]
			l.keys, l.vals = sl.Copy(x.keys), sl.Copy(x.vals)
			if prev == nil {
				c.first = l
			} else {
				prev.next, l.prev = l, prev
			}
			prev = l
			return l
		case *inner:
			in := &inner{
				keys:     slab.Clone(x.keys),
				children: make([]node, len(x.children), cap(x.children)),
			}
			for i, ch := range x.children {
				in.children[i] = clone(ch)
			}
			return in
		}
		panic("btree: unknown node type")
	}
	c.root = clone(t.root)
	return c
}

// Cursor iterates key/value pairs in ascending key order.
type Cursor struct {
	l *leaf
	i int
}

// Next returns the next pair, or ok=false at the end.
func (c *Cursor) Next() (key, value []byte, ok bool) {
	for c.l != nil && c.i >= len(c.l.keys) {
		c.l = c.l.next
		c.i = 0
	}
	if c.l == nil {
		return nil, nil, false
	}
	k, v := c.l.keys[c.i], c.l.vals[c.i]
	c.i++
	return k, v, true
}

// Seek positions a cursor at the first key >= start.
func (t *Tree) Seek(start []byte) *Cursor {
	l, _ := t.findLeaf(start)
	i, _ := l.search(start)
	return &Cursor{l: l, i: i}
}

// Scan positions a cursor at the smallest key.
func (t *Tree) Scan() *Cursor { return &Cursor{l: t.first} }

// AscendPrefix calls fn for every pair whose key begins with prefix,
// in key order, until fn returns false.
func (t *Tree) AscendPrefix(prefix []byte, fn func(key, value []byte) bool) {
	c := t.Seek(prefix)
	for {
		k, v, ok := c.Next()
		if !ok || !bytes.HasPrefix(k, prefix) {
			return
		}
		if !fn(k, v) {
			return
		}
	}
}

// AscendRange calls fn for every pair with start <= key < end.
func (t *Tree) AscendRange(start, end []byte, fn func(key, value []byte) bool) {
	c := t.Seek(start)
	for {
		k, v, ok := c.Next()
		if !ok || (end != nil && bytes.Compare(k, end) >= 0) {
			return
		}
		if !fn(k, v) {
			return
		}
	}
}

// BulkBuild replaces the tree contents with the given pairs, which must
// be sorted by key and free of duplicates. It builds leaves left to
// right without per-insert rebalancing — the "bulk loading" mode that
// the paper had to enable to load BlazeGraph in reasonable time.
func (t *Tree) BulkBuild(keys, vals [][]byte) error {
	if len(keys) != len(vals) {
		return fmt.Errorf("btree: BulkBuild: %d keys but %d values", len(keys), len(vals))
	}
	for i := 1; i < len(keys); i++ {
		if bytes.Compare(keys[i-1], keys[i]) >= 0 {
			return fmt.Errorf("btree: BulkBuild: keys not strictly ascending at %d", i)
		}
	}
	*t = *New()
	const fill = maxKeys * 3 / 4
	var leaves []*leaf
	for i := 0; i < len(keys); i += fill {
		j := i + fill
		if j > len(keys) {
			j = len(keys)
		}
		l := &leaf{
			keys: append([][]byte(nil), keys[i:j]...),
			vals: append([][]byte(nil), vals[i:j]...),
		}
		if n := len(leaves); n > 0 {
			leaves[n-1].next = l
			l.prev = leaves[n-1]
		}
		leaves = append(leaves, l)
		t.bytes += 96
		for k := i; k < j; k++ {
			t.bytes += t.payload(keys[k], vals[k])
		}
	}
	t.size = len(keys)
	if len(leaves) == 0 {
		return nil
	}
	t.first = leaves[0]
	// Build inner levels bottom-up.
	level := make([]node, len(leaves))
	firstKeys := make([][]byte, len(leaves))
	for i, l := range leaves {
		level[i] = l
		firstKeys[i] = l.keys[0]
	}
	for len(level) > 1 {
		var up []node
		var upKeys [][]byte
		const width = degree * 3 / 4
		for i := 0; i < len(level); i += width {
			j := i + width
			if j > len(level) {
				j = len(level)
			}
			in := &inner{children: append([]node(nil), level[i:j]...)}
			for k := i + 1; k < j; k++ {
				in.keys = append(in.keys, firstKeys[k])
			}
			up = append(up, in)
			upKeys = append(upKeys, firstKeys[i])
			t.bytes += 96
		}
		level, firstKeys = up, upKeys
	}
	t.root = level[0]
	return nil
}
