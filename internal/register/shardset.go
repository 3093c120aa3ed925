package register

import (
	"math/bits"
	"strconv"
	"strings"
)

// MaxShards bounds the shard count of a ShardMap. Shard indices are 0-based
// and a ShardSet packs them into shardWords 64-bit words, so the ceiling is
// a multiple of 64; it tracks dist.MaxProcs because the canonical layout
// gives every process at most one shard.
const MaxShards = 256

// shardWords is the number of 64-bit words a ShardSet packs MaxShards bits
// into. Word w holds shards 64w .. 64w+63: bit i of the flat bit string is
// set iff shard i is a member.
const shardWords = MaxShards / 64

// ShardSet is a set of shard indices represented as a fixed-width
// multi-word bitmask: bit i (word i/64, bit i%64) is set iff shard i is a
// member. The zero value is the empty set. Like dist.ProcSet, ShardSet is a
// comparable value type (== is set equality) and every method is pure and
// allocation-free except String. Unlike processes, shard indices are
// 0-based.
type ShardSet [shardWords]uint64

// NewShardSet returns the set containing exactly the given shards. Indices
// outside 0..MaxShards-1 are ignored.
func NewShardSet(shards ...int) ShardSet {
	var s ShardSet
	for _, sh := range shards {
		s = s.Add(sh)
	}
	return s
}

// FullShardSet returns {0, ..., n-1}, clamped to MaxShards.
func FullShardSet(n int) ShardSet {
	var s ShardSet
	if n > MaxShards {
		n = MaxShards
	}
	for w := 0; w < shardWords && n > 0; w++ {
		if n >= 64 {
			s[w] = ^uint64(0)
			n -= 64
		} else {
			s[w] = (uint64(1) << uint(n)) - 1
			n = 0
		}
	}
	return s
}

// shardWordBit resolves a shard index to its word index and in-word mask;
// ok is false outside 0..MaxShards-1.
func shardWordBit(sh int) (w int, mask uint64, ok bool) {
	if sh < 0 || sh >= MaxShards {
		return 0, 0, false
	}
	return sh / 64, uint64(1) << (uint(sh) % 64), true
}

// Has reports whether sh ∈ s.
func (s ShardSet) Has(sh int) bool {
	w, mask, ok := shardWordBit(sh)
	return ok && s[w]&mask != 0
}

// Add returns s ∪ {sh}.
func (s ShardSet) Add(sh int) ShardSet {
	if w, mask, ok := shardWordBit(sh); ok {
		s[w] |= mask
	}
	return s
}

// Remove returns s \ {sh}.
func (s ShardSet) Remove(sh int) ShardSet {
	if w, mask, ok := shardWordBit(sh); ok {
		s[w] &^= mask
	}
	return s
}

// Union returns s ∪ t.
func (s ShardSet) Union(t ShardSet) ShardSet {
	for i := range s {
		s[i] |= t[i]
	}
	return s
}

// Intersect returns s ∩ t.
func (s ShardSet) Intersect(t ShardSet) ShardSet {
	for i := range s {
		s[i] &= t[i]
	}
	return s
}

// Minus returns s \ t.
func (s ShardSet) Minus(t ShardSet) ShardSet {
	for i := range s {
		s[i] &^= t[i]
	}
	return s
}

// IsEmpty reports whether s = ∅.
func (s ShardSet) IsEmpty() bool { return s == ShardSet{} }

// Len returns |s|.
func (s ShardSet) Len() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// rank returns the number of members below sh.
func (s ShardSet) rank(sh int) int {
	n := 0
	for w := 0; w < shardWords && 64*w < sh; w++ {
		word := s[w]
		if rest := sh - 64*w; rest < 64 {
			word &= uint64(1)<<uint(rest) - 1
		}
		n += bits.OnesCount64(word)
	}
	return n
}

// Intersects reports whether s ∩ t ≠ ∅.
func (s ShardSet) Intersects(t ShardSet) bool {
	for i := range s {
		if s[i]&t[i] != 0 {
			return true
		}
	}
	return false
}

// ForEach calls fn for every member in increasing order. It never
// allocates.
func (s ShardSet) ForEach(fn func(int)) {
	for i, w := range s {
		for ; w != 0; w &= w - 1 {
			fn(64*i + bits.TrailingZeros64(w))
		}
	}
}

// String renders the set as {s0,s2,...}.
func (s ShardSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(sh int) {
		if !first {
			b.WriteByte(',')
		}
		first = false
		b.WriteByte('s')
		b.WriteString(strconv.Itoa(sh))
	})
	b.WriteByte('}')
	return b.String()
}
