//! The engine's memo cache: an append-only arena of entries found
//! through a small open-addressing index.
//!
//! A lookup hashes the key word at a time, probes the index for a slot
//! whose tag matches, and confirms with exact key equality. The keys come
//! from the search, not from clients, so a keyed (DoS-resistant) hash
//! buys nothing here. Growing the cache appends to the arena and, now and
//! then, doubles the index, which moves 8-byte slots rather than
//! rehashing keys.
//!
//! With a capacity the arena is a ring: once full, each new entry takes
//! the oldest entry's place, which is first-in-first-out eviction in
//! insertion order. Replacing the value of a resident key keeps its
//! place.

use std::hash::{Hash, Hasher};

/// A free index slot. Never a real slot: arena positions stay below
/// `u32::MAX`.
const EMPTY: u64 = u64::MAX;

/// Smallest index, in slots.
const MIN_SLOTS: usize = 16;

struct Entry<K, V> {
    key: K,
    value: V,
    /// The top 32 bits of the key's hash.
    tag: u32,
}

/// A memo cache from `K` to `V`, optionally FIFO-bounded.
pub(crate) struct MemoCache<K, V> {
    /// Resident entries. Uncapped, or capped and not yet full, they are
    /// in insertion order; capped and full, the oldest is at `head`.
    arena: Vec<Entry<K, V>>,
    /// Arena position of the oldest entry once a capped arena is full.
    head: usize,
    /// Linear-probing index, at most half full: each used slot packs an
    /// entry's tag (high 32 bits) and arena position (low 32 bits).
    index: Vec<u64>,
    /// `32 - log2(index.len())`: a tag's top bits pick its home slot.
    shift: u32,
    cap: Option<usize>,
}

impl<K: Hash + Eq, V> MemoCache<K, V> {
    /// An empty cache, FIFO-bounded to `cap` entries when given.
    pub(crate) fn new(cap: Option<usize>) -> Self {
        MemoCache {
            arena: Vec::new(),
            head: 0,
            index: vec![EMPTY; MIN_SLOTS],
            shift: 32 - MIN_SLOTS.trailing_zeros(),
            cap,
        }
    }

    /// Number of resident entries.
    pub(crate) fn len(&self) -> usize {
        self.arena.len()
    }

    /// The value memoized for `key`.
    pub(crate) fn get(&self, key: &K) -> Option<&V> {
        let (_, found) = self.find(key, tag_of(key));
        found.map(|pos| &self.arena[pos].value)
    }

    /// Drops every entry, keeping the allocations.
    pub(crate) fn clear(&mut self) {
        self.arena.clear();
        self.head = 0;
        self.index.fill(EMPTY);
    }

    /// Inserts `value`, or replaces the value of a resident `key` in
    /// place. A new key past the capacity evicts the oldest entry.
    /// Returns how many entries were evicted.
    pub(crate) fn insert(&mut self, key: K, value: V) -> u64 {
        let tag = tag_of(&key);
        let (slot, found) = self.find(&key, tag);
        if let Some(pos) = found {
            self.arena[pos].value = value;
            return 0;
        }
        let entry = Entry { key, value, tag };
        match self.cap {
            // Inserted, then evicted at once.
            Some(0) => 1,
            Some(cap) if self.arena.len() == cap => {
                let pos = self.head;
                self.unlink(pos);
                self.arena[pos] = entry;
                self.head = (pos + 1) % cap;
                // Unlinking may have shifted the probe chain: look the
                // free slot up again.
                self.link(tag, pos);
                1
            }
            _ => {
                let pos = self.arena.len();
                self.arena.push(entry);
                if 2 * self.arena.len() > self.index.len() {
                    self.grow();
                    self.link(tag, pos);
                } else {
                    self.index[slot] = pack(tag, pos);
                }
                0
            }
        }
    }

    fn home(&self, tag: u32) -> usize {
        (tag >> self.shift) as usize
    }

    /// Probes for `key`: its arena position when resident, and the free
    /// slot that ends the probe chain otherwise.
    fn find(&self, key: &K, tag: u32) -> (usize, Option<usize>) {
        let mask = self.index.len() - 1;
        let mut s = self.home(tag);
        loop {
            let slot = self.index[s];
            if slot == EMPTY {
                return (s, None);
            }
            let pos = slot as u32 as usize;
            if (slot >> 32) as u32 == tag && self.arena[pos].key == *key {
                return (s, Some(pos));
            }
            s = (s + 1) & mask;
        }
    }

    /// Records arena position `pos` with `tag` in the first free slot of
    /// its probe chain.
    fn link(&mut self, tag: u32, pos: usize) {
        let mask = self.index.len() - 1;
        let mut s = self.home(tag);
        while self.index[s] != EMPTY {
            s = (s + 1) & mask;
        }
        self.index[s] = pack(tag, pos);
    }

    /// Removes arena position `pos` from the index by backward-shift
    /// deletion, so probe chains stay unbroken without tombstones.
    fn unlink(&mut self, pos: usize) {
        let mask = self.index.len() - 1;
        let target = pack(self.arena[pos].tag, pos);
        let mut hole = self.home(self.arena[pos].tag);
        while self.index[hole] != target {
            hole = (hole + 1) & mask;
        }
        let mut s = (hole + 1) & mask;
        loop {
            let slot = self.index[s];
            if slot == EMPTY {
                break;
            }
            // The slot may fill the hole when the hole lies between its
            // home and where it sits now (cyclically).
            let home = self.home((slot >> 32) as u32);
            if (s.wrapping_sub(home) & mask) >= (s.wrapping_sub(hole) & mask) {
                self.index[hole] = slot;
                hole = s;
            }
            s = (s + 1) & mask;
        }
        self.index[hole] = EMPTY;
    }

    /// Doubles the index and re-links every resident entry from its
    /// slot's tag.
    fn grow(&mut self) {
        let doubled = vec![EMPTY; 2 * self.index.len()];
        let old = std::mem::replace(&mut self.index, doubled);
        self.shift -= 1;
        for slot in old.into_iter().filter(|&slot| slot != EMPTY) {
            self.link((slot >> 32) as u32, slot as u32 as usize);
        }
    }
}

fn pack(tag: u32, pos: usize) -> u64 {
    assert!(
        pos < u32::MAX as usize,
        "memo arena outgrew its 32-bit index"
    );
    (u64::from(tag) << 32) | pos as u64
}

fn tag_of<K: Hash>(key: &K) -> u32 {
    let mut h = WordHasher::default();
    key.hash(&mut h);
    (h.finish() >> 32) as u32
}

/// A multiply-rotate hasher that takes its input a machine word at a
/// time, with a final avalanche so the top bits depend on every word.
#[derive(Default)]
struct WordHasher(u64);

impl WordHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn write_isize(&mut self, n: isize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        // The 64-bit finalizer of MurmurHash3.
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{HashMap, VecDeque};

    /// The cache this one replaced, kept as the model: a map plus an
    /// insertion-order queue for FIFO eviction.
    struct Model {
        map: HashMap<Key, u64>,
        order: VecDeque<Key>,
        cap: Option<usize>,
    }

    impl Model {
        fn insert(&mut self, key: Key, value: u64) -> u64 {
            let mut evicted = 0;
            if self.map.insert(key, value).is_none() {
                if let Some(cap) = self.cap {
                    self.order.push_back(key);
                    while self.map.len() > cap {
                        match self.order.pop_front() {
                            Some(old) => {
                                if self.map.remove(&old).is_some() {
                                    evicted += 1;
                                }
                            }
                            None => break,
                        }
                    }
                }
            }
            evicted
        }

        fn clear(&mut self) {
            self.map.clear();
            self.order.clear();
        }
    }

    /// A key whose hash sees only `id % 4`, so distinct keys collide on
    /// the full hash and only key equality tells them apart.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Key {
        id: u64,
        colliding: bool,
    }

    impl Hash for Key {
        fn hash<H: Hasher>(&self, state: &mut H) {
            if self.colliding {
                (self.id % 4).hash(state);
            } else {
                self.id.hash(state);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]
        #[test]
        fn matches_the_map_and_queue_model(
            cap in 0usize..40,
            capped in 0u8..3,
            colliding in 0u8..4,
            ops in proptest::collection::vec((0u8..20, 0u64..120, 0u64..1000), 1..600),
        ) {
            let cap = (capped > 0).then_some(cap);
            let mut cache = MemoCache::new(cap);
            let mut model = Model { map: HashMap::new(), order: VecDeque::new(), cap };
            let (mut evicted, mut model_evicted) = (0, 0);
            for (i, &(op, id, value)) in ops.iter().enumerate() {
                let key = Key { id, colliding: colliding == 0 };
                match op {
                    0 => {
                        cache.clear();
                        model.clear();
                    }
                    1..=9 => {
                        evicted += cache.insert(key, value);
                        model_evicted += model.insert(key, value);
                    }
                    _ => prop_assert_eq!(cache.get(&key), model.map.get(&key), "op {}", i),
                }
                prop_assert_eq!(cache.len(), model.map.len(), "op {}", i);
                prop_assert_eq!(evicted, model_evicted, "op {}", i);
            }
            // Every resident key, and only those, is found with its value.
            for id in 0..120 {
                let key = Key { id, colliding: colliding == 0 };
                prop_assert_eq!(cache.get(&key), model.map.get(&key), "final id {}", id);
            }
        }
    }

    #[test]
    fn evicts_in_insertion_order_and_replacing_keeps_the_place() {
        let key = |id| Key {
            id,
            colliding: false,
        };
        let mut cache = MemoCache::new(Some(3));
        for id in 0..3 {
            assert_eq!(cache.insert(key(id), id), 0);
        }
        assert_eq!(cache.insert(key(0), 10), 0, "replacing evicts nothing");
        assert_eq!(cache.insert(key(3), 3), 1);
        assert_eq!(cache.get(&key(0)), None, "key 0 kept its first place");
        assert_eq!(cache.get(&key(1)), Some(&1));
        assert_eq!(cache.insert(key(4), 4), 1);
        assert_eq!(cache.get(&key(1)), None);
        assert_eq!(cache.len(), 3);
    }
}
