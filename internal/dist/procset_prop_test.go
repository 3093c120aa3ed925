package dist

import (
	"math/rand"
	"testing"
)

// refSet is the map-based reference model the multi-word ProcSet is checked
// against: a plain set of ProcIDs with the obvious O(n) implementations of
// every operation.
type refSet map[ProcID]bool

func (r refSet) clone() refSet {
	c := make(refSet, len(r))
	for p := range r {
		c[p] = true
	}
	return c
}

func refFromProcSet(s ProcSet) refSet {
	r := make(refSet)
	s.ForEach(func(p ProcID) { r[p] = true })
	return r
}

func (r refSet) union(o refSet) refSet {
	c := r.clone()
	for p := range o {
		c[p] = true
	}
	return c
}

func (r refSet) intersect(o refSet) refSet {
	c := make(refSet)
	for p := range r {
		if o[p] {
			c[p] = true
		}
	}
	return c
}

func (r refSet) minus(o refSet) refSet {
	c := make(refSet)
	for p := range r {
		if !o[p] {
			c[p] = true
		}
	}
	return c
}

func (r refSet) min() ProcID {
	m := None
	for p := range r {
		if m == None || p < m {
			m = p
		}
	}
	return m
}

func (r refSet) max() ProcID {
	m := None
	for p := range r {
		if p > m {
			m = p
		}
	}
	return m
}

// agree fails the test unless s and r denote the same set, checking every
// accessor the simulator relies on: Contains over the full domain, Len,
// Min/Max, Members ordering, Nth, IsEmpty and the canonical word encoding
// (two equal sets must encode identically; the encoding must be the bits).
func agree(t *testing.T, ctx string, s ProcSet, r refSet) {
	t.Helper()
	if s.Len() != len(r) {
		t.Fatalf("%s: Len() = %d, reference has %d members", ctx, s.Len(), len(r))
	}
	for p := ProcID(0); p <= MaxProcs+2; p++ {
		if s.Contains(p) != r[p] {
			t.Fatalf("%s: Contains(%d) = %v, reference %v", ctx, p, s.Contains(p), r[p])
		}
	}
	if s.Min() != r.min() || s.Max() != r.max() {
		t.Fatalf("%s: Min/Max = %d/%d, reference %d/%d", ctx, s.Min(), s.Max(), r.min(), r.max())
	}
	if s.IsEmpty() != (len(r) == 0) {
		t.Fatalf("%s: IsEmpty() = %v with %d reference members", ctx, s.IsEmpty(), len(r))
	}
	ms := s.Members()
	for i, p := range ms {
		if i > 0 && ms[i-1] >= p {
			t.Fatalf("%s: Members not strictly increasing at %d: %v", ctx, i, ms)
		}
		if !r[p] {
			t.Fatalf("%s: Members yields non-member %d", ctx, p)
		}
		if s.Nth(i) != p {
			t.Fatalf("%s: Nth(%d) = %d, Members[%d] = %d", ctx, i, s.Nth(i), i, p)
		}
	}
	if s.Nth(len(ms)) != None || s.Nth(-1) != None {
		t.Fatalf("%s: Nth out of range must be None", ctx)
	}
	enc := s.AppendWords(nil)
	if len(enc) != 8*procWords {
		t.Fatalf("%s: AppendWords wrote %d bytes, want %d", ctx, len(enc), 8*procWords)
	}
	if NewProcSet(ms...) != s {
		t.Fatalf("%s: Members round trip lost information", ctx)
	}
}

// TestProcSetModelRandomOps drives ProcSet and the reference model through
// the same long random operation sequences — including the binary algebra
// against a second set — and requires them to agree after every step. The
// ID distribution is biased toward word boundaries (63, 64, 65, 127, 128,
// 129, 191, 192, 193, 255, 256) so cross-word carries get dense coverage.
func TestProcSetModelRandomOps(t *testing.T) {
	boundary := []ProcID{1, 2, 63, 64, 65, 127, 128, 129, 191, 192, 193, 255, 256}
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pick := func() ProcID {
			if rng.Intn(2) == 0 {
				return boundary[rng.Intn(len(boundary))]
			}
			return ProcID(rng.Intn(MaxProcs) + 1)
		}
		var s, o ProcSet
		r, q := make(refSet), make(refSet)
		for step := 0; step < 600; step++ {
			switch rng.Intn(8) {
			case 0, 1:
				p := pick()
				s, r[p] = s.Add(p), true
			case 2:
				p := pick()
				s = s.Remove(p)
				delete(r, p)
			case 3:
				p := pick()
				o, q[p] = o.Add(p), true
			case 4:
				s, r = s.Union(o), r.union(q)
			case 5:
				s, r = s.Intersect(o), r.intersect(q)
			case 6:
				s, r = s.Minus(o), r.minus(q)
			case 7:
				k := rng.Intn(MaxProcs + 2)
				s = s.Smallest(k)
				ms := make([]ProcID, 0, len(r))
				for p := range r {
					ms = append(ms, p)
				}
				// keep the k smallest in the reference
				for len(ms) > k {
					worst := 0
					for i := range ms {
						if ms[i] > ms[worst] {
							worst = i
						}
					}
					delete(r, ms[worst])
					ms = append(ms[:worst], ms[worst+1:]...)
				}
			}
			agree(t, "s", s, r)
			// Derived predicates against the model.
			if s.SubsetOf(o) != (len(r.minus(q)) == 0) {
				t.Fatalf("seed %d step %d: SubsetOf disagrees", seed, step)
			}
			if s.Intersects(o) != (len(r.intersect(q)) > 0) {
				t.Fatalf("seed %d step %d: Intersects disagrees", seed, step)
			}
			if s.AllSatisfy(o.Contains) != (len(r.minus(q)) == 0) {
				t.Fatalf("seed %d step %d: AllSatisfy disagrees with SubsetOf", seed, step)
			}
		}
	}
}

// TestProcSetWordBoundaries pins single-element behaviour exactly at the
// word seams of the multi-word representation.
func TestProcSetWordBoundaries(t *testing.T) {
	for _, p := range []ProcID{63, 64, 65, 127, 128, 129, 191, 192, 193, 255, 256} {
		s := NewProcSet(p)
		if !s.Contains(p) || s.Len() != 1 || s.Min() != p || s.Max() != p || s.Nth(0) != p {
			t.Fatalf("singleton {%d} misbehaves: %v", p, s)
		}
		if s.Contains(p-1) || s.Contains(p+1) {
			t.Fatalf("singleton {%d} bleeds into a neighbour", p)
		}
		if !s.Remove(p).IsEmpty() {
			t.Fatalf("Remove(%d) left residue: %v", p, s.Remove(p))
		}
		w, mask, ok := wordBit(p)
		if !ok || s[w] != mask {
			t.Fatalf("bit %d landed in the wrong word: word %d = %#x, want %#x", p, w, s[w], mask)
		}
	}
	// Out-of-domain IDs are ignored everywhere.
	if !NewProcSet(0, MaxProcs+1, MaxProcs+50).IsEmpty() {
		t.Fatal("out-of-domain IDs must be ignored")
	}
	if (ProcSet{}).Remove(0).Remove(MaxProcs+1) != (ProcSet{}) {
		t.Fatal("out-of-domain Remove must be a no-op")
	}
}

// TestRangeSetCrossWordSpans checks RangeSet/FullSet runs that start, end
// or straddle word seams against the reference model.
func TestRangeSetCrossWordSpans(t *testing.T) {
	edges := []ProcID{1, 2, 62, 63, 64, 65, 66, 127, 128, 129, 190, 192, 193, 255, 256}
	for _, lo := range edges {
		for _, hi := range edges {
			s := RangeSet(lo, hi)
			r := make(refSet)
			for p := lo; p <= hi && p <= MaxProcs; p++ {
				r[p] = true
			}
			if lo > hi && !s.IsEmpty() {
				t.Fatalf("RangeSet(%d,%d) must be empty", lo, hi)
			}
			agree(t, "range", s, r)
		}
	}
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 129, 255, 256, 300} {
		s := FullSet(n)
		want := n
		if want < 0 {
			want = 0
		}
		if want > MaxProcs {
			want = MaxProcs
		}
		if s.Len() != want || (want > 0 && (s.Min() != 1 || s.Max() != ProcID(want))) {
			t.Fatalf("FullSet(%d): Len=%d Min=%d Max=%d", n, s.Len(), s.Min(), s.Max())
		}
		if s != RangeSet(1, ProcID(want)) {
			t.Fatalf("FullSet(%d) disagrees with RangeSet", n)
		}
	}
}

// TestProcSetAppendWordsCanonical pins the canonical encoding: procWords
// little-endian words, low processes first — the form every StateEncoder
// must emit so explorer hashes stay bit-identical across worker counts.
func TestProcSetAppendWordsCanonical(t *testing.T) {
	s := NewProcSet(1, 64, 65, 129, 256)
	enc := s.AppendWords([]byte{0xAA}) // appends after existing bytes
	if len(enc) != 1+8*procWords || enc[0] != 0xAA {
		t.Fatalf("AppendWords must append: got %d bytes", len(enc))
	}
	want := make([]byte, 8*procWords)
	want[0] = 0x01  // p1 -> word 0 bit 0
	want[7] = 0x80  // p64 -> word 0 bit 63, little-endian high byte
	want[8] = 0x01  // p65 -> word 1 bit 0
	want[16] = 0x01 // p129 -> word 2 bit 0
	want[31] = 0x80 // p256 -> word 3 bit 63
	for i, b := range enc[1:] {
		if b != want[i] {
			t.Fatalf("encoding byte %d = %#x, want %#x", i, b, want[i])
		}
	}
}
