package value

import (
	"bytes"
	"slices"
	"sync"
)

// Key is an encoded composite key: the injective form EncodeKey gives
// a key's parts. Its one field is unexported, so outside this package a
// Key comes only from EncodeKey or KeyOf — a map keyed by Key cannot
// hold a hand-joined string. Every representation that indexes
// composite keys — core relations, the constraint checks, and the cube,
// rel and tuplestamp baselines — keys its maps by Key, so their keys
// agree and stay collision-free.
type Key struct{ s string }

// String returns the encoded form, for messages and ordering.
func (k Key) String() string { return k.s }

// EncodeKey combines the canonical renderings of a multi-attribute key
// into one Key. Each part is escaped ('\' → `\\`, '|' → `\|`) before
// the parts are joined with '|', so the encoding is injective: a part
// containing the separator can never alias a different split, e.g.
// ("a|b","c") vs ("a","b|c").
func EncodeKey(parts []string) Key {
	n := 0
	for _, p := range parts {
		n += len(p) + 1
	}
	b := make([]byte, 0, n)
	for i, p := range parts {
		if i > 0 {
			b = append(b, '|')
		}
		start := len(b)
		b = backslashBefore(append(b, p...), start, '\\', '|')
	}
	return Key{string(b)}
}

// KeyOf is EncodeKey of the values' renderings, encoded without
// building them as strings.
func KeyOf(vs ...Value) Key {
	var buf [64]byte
	b := buf[:0]
	for i, v := range vs {
		b = AppendKeyPart(b, i, v)
	}
	return Key{string(b)}
}

// AppendKeyPart appends part i of an EncodeKey string whose part is
// v.String(): the '|' separator unless i is 0, then v's escaped
// rendering. Appending every key value in order yields exactly
// EncodeKey of their renderings, without building them as strings.
func AppendKeyPart(dst []byte, i int, v Value) []byte {
	if i > 0 {
		dst = append(dst, '|')
	}
	start := len(dst)
	return backslashBefore(v.AppendTo(dst), start, '\\', '|')
}

// keyScratch recycles SortByKey's key buffer and offsets, so sorting by
// key allocates only the order it returns.
var keyScratch = sync.Pool{New: func() any { return new(keyBuf) }}

type keyBuf struct {
	keys []byte   // every item's key, concatenated
	offs []uint32 // item i's key is keys[offs[i]:offs[i+1]]
}

// SortByKey returns the positions 0…n-1 in ascending order of their
// keys, compared bytewise, and the position of an item whose key
// another item shares (-1 when every key is distinct): duplicates sort
// next to each other. appendKey appends item i's encoded key to dst;
// each key is encoded once, into one pooled buffer.
func SortByKey(n int, appendKey func(dst []byte, i int) []byte) (order []int32, dup int) {
	kb := keyScratch.Get().(*keyBuf)
	defer keyScratch.Put(kb)
	keys, offs := kb.keys[:0], append(kb.offs[:0], 0)
	for i := 0; i < n; i++ {
		keys = appendKey(keys, i)
		offs = append(offs, uint32(len(keys)))
	}
	kb.keys, kb.offs = keys, offs
	key := func(i int32) []byte { return keys[offs[i]:offs[i+1]] }
	order = make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return bytes.Compare(key(a), key(b)) })
	for i := 1; i < len(order); i++ {
		if bytes.Equal(key(order[i-1]), key(order[i])) {
			return order, int(order[i])
		}
	}
	return order, -1
}
