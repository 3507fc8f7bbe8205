//! Set-associative tag storage with true-LRU replacement.
//!
//! Every bounded tag store in the workspace (`gvc_cache`'s
//! set-associative caches, `gvc_tlb`'s TLBs) keeps, per set, a few
//! live ways, each a packed `u64` tag, an LRU stamp from a
//! per-structure use clock, and a small fixed-size record of
//! metadata. [`SetStore`] is that storage and [`victim`] its LRU
//! search, shared by all of them.

/// Storage of a set-associative tag store: `sets` sets of at most
/// `ways` live ways, each way a `u64` tag, a `u64` LRU stamp and a
/// record of `R` words.
///
/// All of it lives in one flat word array. Set `s` owns one block:
///
/// ```text
/// [ live count | tags × ways | stamps × ways | records × ways ]
/// ```
///
/// A way scan reads the count and the tags, which share the block's
/// first host cache line; a victim search reads the stamps right after
/// them; and a hit or an eviction touches one way's record, whose words
/// sit together. The live ways are the first `len(s)` of each region.
/// Ways keep the slot order of a per-set `Vec`: [`SetStore::push`]
/// appends, [`SetStore::swap_remove`] moves the last way into the hole,
/// and [`SetStore::retain`] compacts in order. Nothing allocates after
/// construction.
///
/// ```
/// use gvc_engine::lru::SetStore;
///
/// let mut s = SetStore::<1>::new(2, 2);
/// s.push(1, 0xA, 1, [10]);
/// s.push(1, 0xB, 2, [20]);
/// assert_eq!(s.find(1, 0xB), Some(1));
/// s.touch(1, 0, 3); // 0xA is now the most recently used
/// assert_eq!(s.victim(1), 1);
/// s.swap_remove(1, 1);
/// assert_eq!(s.tags(1), &[0xA]);
/// assert_eq!(s.record(1, 0), &[10]);
/// ```
#[derive(Debug)]
pub struct SetStore<const R: usize> {
    words: Vec<u64>,
    sets: usize,
    ways: usize,
    /// Words per block: `1 + ways * (2 + R)`.
    stride: usize,
}

impl<const R: usize> SetStore<R> {
    /// An empty store.
    pub fn new(sets: usize, ways: usize) -> Self {
        let stride = 1 + ways * (2 + R);
        SetStore {
            words: vec![0; sets * stride],
            sets,
            ways,
            stride,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Ways per set.
    pub fn ways(&self) -> usize {
        self.ways
    }

    #[inline]
    fn block(&self, set: usize) -> usize {
        set * self.stride
    }

    #[inline]
    fn stamp_at(&self, set: usize, way: usize) -> usize {
        self.block(set) + 1 + self.ways + way
    }

    #[inline]
    fn record_at(&self, set: usize, way: usize) -> usize {
        self.block(set) + 1 + 2 * self.ways + way * R
    }

    /// Live ways in `set`.
    #[inline]
    pub fn len(&self, set: usize) -> usize {
        self.words[self.block(set)] as usize
    }

    /// Live ways over all sets.
    pub fn total_len(&self) -> usize {
        (0..self.sets).map(|s| self.len(s)).sum()
    }

    /// The live tags of `set`, in slot order.
    #[inline]
    pub fn tags(&self, set: usize) -> &[u64] {
        let b = self.block(set) + 1;
        &self.words[b..b + self.len(set)]
    }

    /// The tag of one live way.
    #[inline]
    pub fn tag(&self, set: usize, way: usize) -> u64 {
        self.tags(set)[way]
    }

    /// The live way of `set` holding `tag`, if any.
    #[inline]
    pub fn find(&self, set: usize, tag: u64) -> Option<usize> {
        self.tags(set).iter().position(|&t| t == tag)
    }

    /// The LRU stamp of one way.
    #[inline]
    pub fn stamp(&self, set: usize, way: usize) -> u64 {
        self.words[self.stamp_at(set, way)]
    }

    /// Sets the LRU stamp of one way.
    #[inline]
    pub fn touch(&mut self, set: usize, way: usize, stamp: u64) {
        let i = self.stamp_at(set, way);
        self.words[i] = stamp;
    }

    /// The record of one way.
    #[inline]
    pub fn record(&self, set: usize, way: usize) -> &[u64; R] {
        let r = self.record_at(set, way);
        self.words[r..r + R].try_into().expect("R words")
    }

    /// The record of one way, for update in place.
    #[inline]
    pub fn record_mut(&mut self, set: usize, way: usize) -> &mut [u64; R] {
        let r = self.record_at(set, way);
        (&mut self.words[r..r + R]).try_into().expect("R words")
    }

    /// The least recently used live way of `set` (see [`victim`]).
    ///
    /// # Panics
    ///
    /// Panics if the set is empty.
    #[inline]
    pub fn victim(&self, set: usize) -> usize {
        let s = self.stamp_at(set, 0);
        victim(&self.words[s..s + self.len(set)])
    }

    /// Appends a way to `set`.
    ///
    /// # Panics
    ///
    /// Panics if the set is full.
    #[inline]
    pub fn push(&mut self, set: usize, tag: u64, stamp: u64, record: [u64; R]) {
        let way = self.len(set);
        assert!(way < self.ways, "set {set} is full");
        let b = self.block(set);
        self.words[b + 1 + way] = tag;
        self.touch(set, way, stamp);
        *self.record_mut(set, way) = record;
        self.words[b] += 1;
    }

    /// Removes one live way; the set's last way moves into the hole.
    #[inline]
    pub fn swap_remove(&mut self, set: usize, way: usize) {
        let last = self.len(set) - 1;
        assert!(way <= last, "way {way} is not live in set {set}");
        self.move_way(set, last, way);
        let b = self.block(set);
        self.words[b] -= 1;
    }

    /// Removes every live way of `set` whose tag fails `keep`, keeping
    /// the survivors' relative order; returns how many were removed.
    pub fn retain(&mut self, set: usize, mut keep: impl FnMut(u64) -> bool) -> usize {
        let len = self.len(set);
        let mut write = 0;
        for read in 0..len {
            if keep(self.tag(set, read)) {
                self.move_way(set, read, write);
                write += 1;
            }
        }
        let b = self.block(set);
        self.words[b] = write as u64;
        len - write
    }

    /// Empties every set.
    pub fn clear(&mut self) {
        for set in 0..self.sets {
            let b = self.block(set);
            self.words[b] = 0;
        }
    }

    /// Copies way `from` of `set` over way `to`.
    #[inline]
    fn move_way(&mut self, set: usize, from: usize, to: usize) {
        if from == to {
            return;
        }
        let b = self.block(set) + 1;
        self.words[b + to] = self.words[b + from];
        let (sf, st) = (self.stamp_at(set, from), self.stamp_at(set, to));
        self.words[st] = self.words[sf];
        *self.record_mut(set, to) = *self.record(set, from);
    }
}

/// The index of the first minimum of `stamps`: the LRU way of a set
/// whose ways carry the given recency stamps, in scan order.
///
/// Each stamp is widened to the `u128` key `stamp << 64 | index`, so
/// one integer minimum orders by stamp and breaks ties by the lower
/// index. The scan keeps four independent running minima (lane `l` sees
/// the indices `≡ l mod 4`), each a branch-free select, and reduces
/// them pairwise. The four compare chains do not wait on one another,
/// so a 16- or 32-way set costs about a quarter of a serial loop's
/// latency, and a random eviction order mispredicts nothing. The
/// result is the first minimum in scan order even if stamps tie (every
/// live store's stamps are unique, so ties only arise in hand-built
/// input).
///
/// ```
/// use gvc_engine::lru;
///
/// assert_eq!(lru::victim(&[9, 4, 7, 4, 8]), 1);
/// assert_eq!(lru::victim(&[3]), 0);
/// ```
///
/// # Panics
///
/// Panics if `stamps` is empty.
#[inline]
pub fn victim(stamps: &[u64]) -> usize {
    assert!(!stamps.is_empty(), "a full set has at least one way");
    let key = |i: usize, s: u64| (u128::from(s) << 64) | i as u128;
    let mut lanes = [u128::MAX; 4];
    let mut chunks = stamps.chunks_exact(4);
    let mut base = 0;
    for chunk in &mut chunks {
        for (lane, &s) in chunk.iter().enumerate() {
            lanes[lane] = lanes[lane].min(key(base + lane, s));
        }
        base += 4;
    }
    for (lane, &s) in chunks.remainder().iter().enumerate() {
        lanes[lane] = lanes[lane].min(key(base + lane, s));
    }
    // The low half of the smallest key is its index.
    lanes[0].min(lanes[1]).min(lanes[2].min(lanes[3])) as u64 as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The serial first-minimum loop the helper replaces.
    fn serial(stamps: &[u64]) -> usize {
        let mut v = 0;
        for i in 1..stamps.len() {
            if stamps[i] < stamps[v] {
                v = i;
            }
        }
        v
    }

    #[test]
    fn matches_the_serial_first_minimum() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for len in 1..=40 {
            for round in 0..200 {
                let stamps: Vec<u64> = (0..len)
                    .map(|_| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        // Small ranges force ties; large ones are unique.
                        if round % 2 == 0 {
                            x % 6
                        } else {
                            x
                        }
                    })
                    .collect();
                assert_eq!(victim(&stamps), serial(&stamps), "{stamps:?}");
            }
        }
    }

    #[test]
    fn ties_resolve_to_the_first_index() {
        assert_eq!(victim(&[5, 5, 5, 5, 5, 5]), 0);
        assert_eq!(victim(&[7, 2, 9, 9, 8, 2, 3, 2]), 1);
        assert_eq!(victim(&[u64::MAX, u64::MAX]), 0);
    }

    #[test]
    fn store_keeps_vec_slot_order() {
        let mut s = SetStore::<2>::new(3, 4);
        for (i, tag) in [5u64, 6, 7, 8].into_iter().enumerate() {
            s.push(2, tag, 10 + i as u64, [tag * 100, tag * 1000]);
        }
        assert_eq!(s.len(2), 4);
        assert_eq!(s.total_len(), 4);
        assert_eq!(s.tags(0), &[] as &[u64], "other sets stay empty");
        s.swap_remove(2, 0);
        assert_eq!(s.tags(2), &[8, 6, 7]);
        assert_eq!(s.record(2, 0), &[800, 8000]);
        assert_eq!(s.stamp(2, 0), 13);
        assert_eq!(s.retain(2, |t| t != 6), 1);
        assert_eq!(s.tags(2), &[8, 7]);
        assert_eq!(s.record(2, 1), &[700, 7000]);
        assert_eq!(s.victim(2), 1, "7 (stamp 12) is older than 8 (stamp 13)");
        s.record_mut(2, 1)[0] = 1;
        assert_eq!(s.record(2, 1), &[1, 7000]);
        s.clear();
        assert_eq!(s.total_len(), 0);
    }

    #[test]
    #[should_panic(expected = "is full")]
    fn store_rejects_push_into_full_set() {
        let mut s = SetStore::<0>::new(1, 1);
        s.push(0, 1, 1, []);
        s.push(0, 2, 2, []);
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn empty_set_has_no_victim() {
        victim(&[]);
    }
}
