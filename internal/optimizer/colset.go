package optimizer

import "math/bits"

// colSet is a set of one table's column ordinals, a bit each: ordinals
// below 64 inline, the rest in hi, 64 to a word, so that a set over a
// table of up to 64 columns allocates nothing and a wider one is no
// special case.
type colSet struct {
	lo uint64
	hi []uint64
}

// add inserts ordinal c; a negative one (noColumn) is no column.
func (s *colSet) add(c int32) {
	switch {
	case c < 0:
	case c < 64:
		s.lo |= 1 << c
	default:
		w := int(c>>6) - 1
		for len(s.hi) <= w {
			s.hi = append(s.hi, 0)
		}
		s.hi[w] |= 1 << (c & 63)
	}
}

// has reports whether ordinal c is in the set.
func (s *colSet) has(c int32) bool {
	switch {
	case c < 0:
		return false
	case c < 64:
		return s.lo>>c&1 != 0
	}
	w := int(c>>6) - 1
	return w < len(s.hi) && s.hi[w]>>(c&63)&1 != 0
}

// subsetOf reports whether every member of s is in t.
func (s *colSet) subsetOf(t *colSet) bool {
	if s.lo&^t.lo != 0 {
		return false
	}
	for w, word := range s.hi {
		if w < len(t.hi) {
			word &^= t.hi[w]
		}
		if word != 0 {
			return false
		}
	}
	return true
}

// next returns the smallest member at or after c, or -1.
func (s *colSet) next(c int32) int32 {
	if c < 64 {
		if w := s.lo >> c; w != 0 {
			return c + int32(bits.TrailingZeros64(w))
		}
		c = 64
	}
	for w := int(c>>6) - 1; w < len(s.hi); w++ {
		word := s.hi[w]
		if w == int(c>>6)-1 {
			word &= ^uint64(0) << (c & 63)
		}
		if word != 0 {
			return int32(w+1)<<6 + int32(bits.TrailingZeros64(word))
		}
	}
	return -1
}

// count returns the number of members.
func (s *colSet) count() int {
	n := bits.OnesCount64(s.lo)
	for _, word := range s.hi {
		n += bits.OnesCount64(word)
	}
	return n
}

// clone returns a copy that shares no words with s.
func (s colSet) clone() colSet {
	if s.hi != nil {
		s.hi = append([]uint64(nil), s.hi...)
	}
	return s
}
