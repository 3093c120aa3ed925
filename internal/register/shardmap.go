package register

import (
	"fmt"
	"strings"

	"repro/internal/dist"
)

// ShardMap partitions the store's key space across several register member
// sets: key k belongs to shard k mod Shards (striped, so every shard's keys
// form a dense local index space), and shard i is replicated by the member
// set Σ_{S_i} = Group(i). Each shard is an independent "sharing" instance of
// the paper — its quorums are drawn only from its own group, so replica
// state and quorum traffic at a process scale with the shards it belongs to
// rather than with the whole key space, and a crash can only degrade the
// availability of the shards whose group it belongs to.
type ShardMap struct {
	n      int
	keys   int
	shards int
	groups []dist.ProcSet
}

// NewShardMap builds the canonical shard map for an n-process system:
// process p replicates shard (p-1) mod shards, so the groups partition Π
// round-robin into disjoint replica sets (the bounded-sharing layout: every
// process owns exactly one shard). shards must fit the system, the key
// space and the availability bitmask.
func NewShardMap(n, keys, shards int) (*ShardMap, error) {
	if n < 1 || n > dist.MaxProcs {
		return nil, fmt.Errorf("register: shard map needs 1 ≤ n ≤ %d, got %d", dist.MaxProcs, n)
	}
	if shards < 1 || shards > MaxShards {
		return nil, fmt.Errorf("register: shard count %d outside 1..%d", shards, MaxShards)
	}
	if shards > n {
		return nil, fmt.Errorf("register: %d shards need at least as many processes, got n=%d", shards, n)
	}
	groups := make([]dist.ProcSet, shards)
	for p := 1; p <= n; p++ {
		groups[(p-1)%shards] = groups[(p-1)%shards].Add(dist.ProcID(p))
	}
	return NewShardMapWithGroups(n, keys, groups)
}

// NewShardMapWithGroups builds a shard map with explicit replica groups
// (groups[i] is Σ_{S_i}); len(groups) fixes the shard count. Groups may
// overlap, but every group must be a non-empty subset of Π.
func NewShardMapWithGroups(n, keys int, groups []dist.ProcSet) (*ShardMap, error) {
	shards := len(groups)
	if n < 1 || n > dist.MaxProcs {
		return nil, fmt.Errorf("register: shard map needs 1 ≤ n ≤ %d, got %d", dist.MaxProcs, n)
	}
	if keys < 1 {
		return nil, fmt.Errorf("register: shard map needs Keys ≥ 1, got %d", keys)
	}
	if shards < 1 || shards > MaxShards {
		return nil, fmt.Errorf("register: shard count %d outside 1..%d", shards, MaxShards)
	}
	if shards > keys {
		return nil, fmt.Errorf("register: %d shards for %d keys would leave a shard empty", shards, keys)
	}
	full := dist.FullSet(n)
	for i, g := range groups {
		if g.IsEmpty() {
			return nil, fmt.Errorf("register: shard %d has an empty replica group", i)
		}
		if !g.SubsetOf(full) {
			return nil, fmt.Errorf("register: shard %d group %v outside the %d-process system", i, g, n)
		}
	}
	return &ShardMap{n: n, keys: keys, shards: shards, groups: append([]dist.ProcSet(nil), groups...)}, nil
}

// Shards returns the shard count.
func (m *ShardMap) Shards() int { return m.shards }

// Keys returns the size of the key space the map covers.
func (m *ShardMap) Keys() int { return m.keys }

// Shard maps a key to its shard index.
func (m *ShardMap) Shard(key int) int { return key % m.shards }

// Local maps a key to its dense index within its shard's replica slices.
func (m *ShardMap) Local(key int) int { return key / m.shards }

// KeyAt is the inverse of (Shard, Local): the key at a shard's dense local
// index.
func (m *ShardMap) KeyAt(shard, local int) int { return local*m.shards + shard }

// KeysIn returns the number of keys striped onto a shard.
func (m *ShardMap) KeysIn(shard int) int {
	return (m.keys - shard + m.shards - 1) / m.shards
}

// Group returns shard i's replica member set Σ_{S_i}.
func (m *ShardMap) Group(shard int) dist.ProcSet { return m.groups[shard] }

// Owns reports whether process p replicates the given shard.
func (m *ShardMap) Owns(p dist.ProcID, shard int) bool { return m.groups[shard].Contains(p) }

// Available returns the set of shards whose replica group intersects
// correct: exactly those shards still have live quorums (Σ_{S_i} projected
// onto a fully crashed group has no non-empty intersection-closed trusted
// sets, so operations on such a shard can never complete — the paper's
// impossibility, one shard at a time).
func (m *ShardMap) Available(correct dist.ProcSet) ShardSet {
	var avail ShardSet
	for i, g := range m.groups {
		if g.Intersects(correct) {
			avail = avail.Add(i)
		}
	}
	return avail
}

// String renders the shard layout.
func (m *ShardMap) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d keys / %d shards:", m.keys, m.shards)
	for i, g := range m.groups {
		fmt.Fprintf(&b, " s%d=%v", i, g)
	}
	return b.String()
}

// offset returns where shard sh's keys start in a replica slice laid out
// flat over the keys of the owned shards in increasing shard order: the
// number of keys on the owned shards below sh. Striping gives each of the
// first Keys mod Shards shards one key more than the rest, so two ranks
// make it O(1), without a per-process table. offset(owned, Shards()) is
// the owned key count.
func (m *ShardMap) offset(owned ShardSet, sh int) int {
	q, r := m.keys/m.shards, m.keys%m.shards
	return q*owned.rank(sh) + owned.rank(min(sh, r))
}
