package value

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
		b = escapeKeyPart(append(b, p...), start)
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
	return escapeKeyPart(v.AppendTo(dst), start)
}

// escapeKeyPart escapes every '\' and '|' of b[start:] in place,
// shifting the tail right from the end so no second buffer is needed.
func escapeKeyPart(b []byte, start int) []byte {
	n := 0
	for _, c := range b[start:] {
		if c == '\\' || c == '|' {
			n++
		}
	}
	if n == 0 {
		return b
	}
	end := len(b)
	b = append(b, make([]byte, n)...)
	j := len(b)
	for i := end - 1; i >= start; i-- {
		j--
		b[j] = b[i]
		if b[i] == '\\' || b[i] == '|' {
			j--
			b[j] = '\\'
		}
	}
	return b
}
