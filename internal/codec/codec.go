// Package codec provides injective, canonical string encodings for the
// structured objects of the framework: tuples, lists, sets and maps of
// strings. These encodings play the role of the paper's bit-string
// representations ⟨q⟩, ⟨a⟩, ⟨tr⟩, ⟨C⟩ (Section 4): they are used both as map
// keys (so composite states, configurations and executions are comparable)
// and as the yardstick for description-length bounds in internal/bounded.
//
// All encodings are injective: distinct inputs produce distinct outputs, and
// every output decodes back to the original input. Tuple encoding is escape
// based: '\' escapes itself and the separator '|', so arbitrary component
// strings round-trip.
package codec

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"unsafe"
)

// sep separates tuple components; esc escapes sep and itself.
const (
	sep = '|'
	esc = '\\'
)

// emptyTuple is the sentinel encoding of the zero-length tuple.
const emptyTuple = "()"

// EncodeTuple encodes an ordered sequence of strings into a single string.
// The encoding is injective over [][]string: EncodeTuple(a) == EncodeTuple(b)
// implies len(a) == len(b) and a[i] == b[i] for all i. The empty tuple
// encodes to "()" to keep it distinct from the singleton empty string.
func EncodeTuple(parts []string) string {
	if len(parts) == 0 {
		return emptyTuple
	}
	return bytesString(appendParts(make([]byte, 0, tupleLen(parts)), parts))
}

// AppendTuple appends EncodeTuple(parts) to dst and returns the extended
// slice, growing dst at most once. Callers that only look the encoding up
// (a map probe with string(buf) as the key) reuse one buffer and allocate
// nothing per tuple.
func AppendTuple(dst []byte, parts ...string) []byte {
	if len(parts) == 0 {
		return append(dst, emptyTuple...)
	}
	// Escaping at most doubles a component, so a buffer with room for
	// twice the raw length needs no exact count.
	worst := len(parts) - 1
	for _, p := range parts {
		worst += 2 * len(p)
	}
	if cap(dst)-len(dst) < worst {
		dst = slices.Grow(dst, tupleLen(parts))
	}
	return appendParts(dst, parts)
}

// appendParts appends the encoding of a non-empty tuple to b.
func appendParts(b []byte, parts []string) []byte {
	for i, p := range parts {
		if i > 0 {
			b = append(b, sep)
		}
		b = appendEscaped(b, p)
	}
	return b
}

// tupleLen is the exact length of the encoding of a non-empty tuple:
// the components, one separator between each pair, and one byte per
// escape.
func tupleLen(parts []string) int {
	n := len(parts) - 1
	for _, p := range parts {
		n += escapedLen(p)
	}
	return n
}

// escapedLen is the length of one component after escaping.
func escapedLen(p string) int {
	if p == emptyTuple {
		return 4
	}
	n := len(p)
	for j := 0; j < len(p); j++ {
		if c := p[j]; c == sep || c == esc {
			n++
		}
	}
	return n
}

// appendEscaped appends one component with sep/esc escaping, copying the
// runs between escaped bytes whole. A component that is exactly the
// empty-tuple sentinel is written escape-prefixed so a singleton ("()")
// never collides with the encoding of the empty tuple; the decoder needs no
// special case since escaped bytes pass through verbatim.
func appendEscaped(b []byte, p string) []byte {
	if p == emptyTuple {
		return append(b, esc, '(', esc, ')')
	}
	run := 0
	for j := 0; j < len(p); j++ {
		if c := p[j]; c == sep || c == esc {
			b = append(append(b, p[run:j]...), esc)
			run = j
		}
	}
	return append(b, p[run:]...)
}

// bytesString converts a buffer that is never written again to a string
// without copying it, as strings.Builder does.
func bytesString(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// AppendToTuple extends an existing tuple encoding with further
// components, in one pass over the new components only:
// AppendToTuple(EncodeTuple(xs), ys...) == EncodeTuple(append(xs, ys...)).
// It is the incremental form of EncodeTuple used by persistent structures
// (execution fragments) whose keys grow one step at a time from a cached
// parent key, and by insights that grow a trace one action at a time from
// the empty tuple.
func AppendToTuple(enc string, parts ...string) string {
	if len(parts) == 0 {
		return enc
	}
	if enc == emptyTuple {
		return EncodeTuple(parts)
	}
	b := make([]byte, 0, len(enc)+1+tupleLen(parts))
	b = append(append(b, enc...), sep)
	return bytesString(appendParts(b, parts))
}

// DecodeTuple reverses EncodeTuple. It returns an error if s is not a valid
// tuple encoding (dangling escape).
func DecodeTuple(s string) ([]string, error) {
	if s == emptyTuple {
		return nil, nil
	}
	parts := []string{}
	var cur strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch c {
		case esc:
			i++
			if i >= len(s) {
				return nil, fmt.Errorf("codec: dangling escape in %q", s)
			}
			cur.WriteByte(s[i])
		case sep:
			parts = append(parts, cur.String())
			cur.Reset()
		default:
			cur.WriteByte(c)
		}
	}
	parts = append(parts, cur.String())
	return parts, nil
}

// MustDecodeTuple is DecodeTuple for encodings produced by this package; it
// panics on malformed input, which indicates a caller bug.
func MustDecodeTuple(s string) []string {
	parts, err := DecodeTuple(s)
	if err != nil {
		panic(err)
	}
	return parts
}

// EncodeTagged encodes a tagged value: an identifying tag plus a payload
// tuple. Used for states of wrapper automata (hidden, renamed, dummy) so
// their state spaces never collide with those of the wrapped automata.
func EncodeTagged(tag string, parts ...string) string {
	all := make([]string, 0, len(parts)+1)
	all = append(all, "#"+tag)
	all = append(all, parts...)
	return EncodeTuple(all)
}

// DecodeTagged reverses EncodeTagged, returning the tag and payload parts.
func DecodeTagged(s string) (tag string, parts []string, err error) {
	all, err := DecodeTuple(s)
	if err != nil {
		return "", nil, err
	}
	if len(all) == 0 || !strings.HasPrefix(all[0], "#") {
		return "", nil, fmt.Errorf("codec: %q is not a tagged encoding", s)
	}
	return all[0][1:], all[1:], nil
}

// EncodeSortedSet encodes an unordered collection of strings canonically by
// sorting a copy first, so two sets with equal elements encode identically.
func EncodeSortedSet(elems []string) string {
	cp := append([]string(nil), elems...)
	sort.Strings(cp)
	return EncodeTuple(cp)
}

// EncodePairs encodes a string→string map canonically (sorted by key). Each
// entry becomes a 2-tuple; the whole map is a tuple of entry encodings.
func EncodePairs(m map[string]string) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	entries := make([]string, len(keys))
	for i, k := range keys {
		entries[i] = EncodeTuple([]string{k, m[k]})
	}
	return EncodeTuple(entries)
}

// DecodePairs reverses EncodePairs.
func DecodePairs(s string) (map[string]string, error) {
	entries, err := DecodeTuple(s)
	if err != nil {
		return nil, err
	}
	m := make(map[string]string, len(entries))
	for _, e := range entries {
		kv, err := DecodeTuple(e)
		if err != nil {
			return nil, err
		}
		if len(kv) != 2 {
			return nil, fmt.Errorf("codec: pair entry %q has %d parts, want 2", e, len(kv))
		}
		m[kv[0]] = kv[1]
	}
	return m, nil
}

// BitLen reports the length in bits of the canonical representation of s,
// the quantity bounded by the paper's b-time-bounded definitions (Def 4.1
// item 1: "the length of the bit-string representation ... is at most b").
func BitLen(s string) int { return 8 * len(s) }
