//! A generic set-associative cache array with LRU replacement.
//!
//! Instantiated twice per processor: an L1 whose per-line metadata is a
//! dirty bit, and an L2 whose metadata is a [`crate::mesi::MesiState`].
//! The array stores no data bytes — the simulator tracks timing and
//! coherence; functional data (for the security layer) is synthesized at
//! the bus level.
//!
//! # Layout
//!
//! The directory is struct-of-arrays: one flat `tags` / `meta` /
//! `last_use` array each, plus a packed validity bitmask, all
//! preallocated at construction. Set `i` owns the slot range
//! `i*ways .. (i+1)*ways`, so a set probe is a fixed-trip linear scan
//! over adjacent words — no per-set `Vec` indirection, no growth branch
//! on the hot path.
//!
//! # Snapshot compatibility
//!
//! The previous array-of-structs layout materialized sets lazily and
//! grew each set one slot at a time, and checkpoints captured exactly
//! that shape (variable-length sets; an untouched cache exports no sets
//! at all). The SoA layout reproduces it bit-for-bit: a `touched` flag
//! stands in for "were the sets ever materialized", and the per-set
//! materialized length is derived at export time from the invariant
//! that a slot has `last_use > 0` iff it was ever filled — fills walk
//! the set left to right, so the materialized slots of a set are always
//! a prefix.

/// A set-associative, LRU-replaced cache directory.
///
/// `M` is the per-line metadata (coherence state, dirty bit, …).
#[derive(Debug, Clone)]
pub struct SetAssocCache<M> {
    /// `set_count * ways` tags, set-major.
    tags: Vec<u64>,
    /// Parallel per-slot metadata.
    meta: Vec<M>,
    /// Parallel per-slot LRU stamps; `0` marks a never-filled slot.
    last_use: Vec<u64>,
    /// Packed per-slot validity bits, one bit per slot.
    valid: Vec<u64>,
    ways: usize,
    line_shift: u32,
    set_count: usize,
    use_clock: u64,
    /// Whether any state-changing probe ever ran (see module docs).
    touched: bool,
}

/// One exported line slot: `(tag, metadata, last_use, valid)` — the
/// exact fields a checkpoint must carry per cache line.
pub(crate) type LineSlotState<M> = (u64, M, u64, bool);

impl<M: Default> SetAssocCache<M> {
    /// Creates a cache of `size` bytes, `ways`-associative, with
    /// `line_size`-byte lines. All sets are preallocated here; no
    /// probe ever allocates.
    ///
    /// # Panics
    ///
    /// Panics unless `size`, `ways` and `line_size` are consistent powers
    /// of two with at least one set.
    pub fn new(size: usize, ways: usize, line_size: usize) -> SetAssocCache<M> {
        assert!(
            line_size.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(ways > 0, "associativity must be positive");
        assert!(
            size.is_multiple_of(ways * line_size),
            "size must be a multiple of ways * line_size"
        );
        let set_count = size / (ways * line_size);
        assert!(
            set_count.is_power_of_two() && set_count > 0,
            "set count must be a power of two"
        );
        let slots = set_count * ways;
        let mut meta = Vec::with_capacity(slots);
        meta.resize_with(slots, M::default);
        SetAssocCache {
            tags: vec![0; slots],
            meta,
            last_use: vec![0; slots],
            valid: vec![0; slots.div_ceil(64)],
            ways,
            line_shift: line_size.trailing_zeros(),
            set_count,
            use_clock: 0,
            touched: false,
        }
    }

    /// Removes the line for `addr`, returning its metadata if present.
    /// The slot is left invalid and will be reused by future inserts.
    pub fn take(&mut self, addr: u64) -> Option<M> {
        let slot = self.find_slot(addr)?;
        self.clear_valid(slot);
        Some(std::mem::take(&mut self.meta[slot]))
    }

    /// Restores state captured by [`SetAssocCache::export_state`] into a
    /// freshly-constructed cache of the same geometry.
    ///
    /// # Panics
    ///
    /// Panics if the set count disagrees with this cache's geometry
    /// (a snapshot from a different configuration), or if a set holds
    /// more slots than the associativity.
    pub(crate) fn import_state(&mut self, use_clock: u64, sets: Vec<Vec<LineSlotState<M>>>) {
        assert!(
            sets.is_empty() || sets.len() == self.set_count,
            "snapshot has {} sets, cache has {}",
            sets.len(),
            self.set_count
        );
        self.use_clock = use_clock;
        self.touched = !sets.is_empty();
        self.tags.fill(0);
        self.last_use.fill(0);
        self.valid.fill(0);
        for m in &mut self.meta {
            *m = M::default();
        }
        for (idx, set) in sets.into_iter().enumerate() {
            assert!(
                set.len() <= self.ways,
                "snapshot set wider than associativity"
            );
            let base = idx * self.ways;
            for (way, (tag, meta, last_use, valid)) in set.into_iter().enumerate() {
                // Every slot a checkpoint carries was once filled; the
                // export-time length derivation depends on it.
                debug_assert!(valid || last_use > 0, "checkpoint slot was never filled");
                let s = base + way;
                self.tags[s] = tag;
                self.meta[s] = meta;
                self.last_use[s] = last_use;
                if valid {
                    self.set_valid(s);
                }
            }
        }
    }
}

impl<M> SetAssocCache<M> {
    /// Aligns `addr` down to its line address.
    pub fn line_addr(&self, addr: u64) -> u64 {
        addr >> self.line_shift << self.line_shift
    }

    /// The line size in bytes.
    pub fn line_size(&self) -> usize {
        1 << self.line_shift
    }

    /// Number of sets.
    pub fn set_count(&self) -> usize {
        self.set_count
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    fn set_index(&self, addr: u64) -> usize {
        ((addr >> self.line_shift) as usize) & (self.set_count - 1)
    }

    fn tag(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    #[inline]
    fn is_valid(&self, slot: usize) -> bool {
        self.valid[slot >> 6] >> (slot & 63) & 1 == 1
    }

    #[inline]
    fn set_valid(&mut self, slot: usize) {
        self.valid[slot >> 6] |= 1 << (slot & 63);
    }

    #[inline]
    fn clear_valid(&mut self, slot: usize) {
        self.valid[slot >> 6] &= !(1 << (slot & 63));
    }

    /// Finds the slot index holding `addr`'s line, if resident.
    #[inline]
    fn find_slot(&self, addr: u64) -> Option<usize> {
        let tag = self.tag(addr);
        let base = self.set_index(addr) * self.ways;
        (base..base + self.ways).find(|&s| self.tags[s] == tag && self.is_valid(s))
    }

    /// Looks up `addr`, updating LRU, and returns mutable metadata on hit.
    pub fn lookup_mut(&mut self, addr: u64) -> Option<&mut M> {
        self.use_clock += 1;
        self.touched = true;
        let clock = self.use_clock;
        let slot = self.find_slot(addr)?;
        self.last_use[slot] = clock;
        Some(&mut self.meta[slot])
    }

    /// Looks up `addr` without updating LRU (snoop path).
    pub fn peek(&self, addr: u64) -> Option<&M> {
        self.find_slot(addr).map(|s| &self.meta[s])
    }

    /// Like [`SetAssocCache::peek`] but mutable (snoop state changes must
    /// not disturb LRU).
    pub fn peek_mut(&mut self, addr: u64) -> Option<&mut M> {
        self.touched = true;
        let slot = self.find_slot(addr)?;
        Some(&mut self.meta[slot])
    }

    /// Inserts a line for `addr` with metadata `meta`, touching LRU.
    /// Returns the evicted `(line_addr, meta)` if a valid victim was
    /// displaced.
    ///
    /// # Panics
    ///
    /// Panics if the line is already present (callers must use
    /// [`SetAssocCache::lookup_mut`] first).
    pub fn insert(&mut self, addr: u64, meta: M) -> Option<(u64, M)> {
        let tag = self.tag(addr);
        let base = self.set_index(addr) * self.ways;
        self.use_clock += 1;
        self.touched = true;
        let clock = self.use_clock;
        // Fill the first invalid slot if the set has room.
        let mut free = None;
        for s in base..base + self.ways {
            if self.is_valid(s) {
                assert!(
                    self.tags[s] != tag,
                    "inserting a line that is already present"
                );
            } else if free.is_none() {
                free = Some(s);
            }
        }
        if let Some(s) = free {
            self.tags[s] = tag;
            self.meta[s] = meta;
            self.last_use[s] = clock;
            self.set_valid(s);
            return None;
        }
        // Evict the LRU way (first minimum, matching the old
        // `min_by_key` tie-break — stamps are unique in practice).
        let mut victim = base;
        for s in base + 1..base + self.ways {
            if self.last_use[s] < self.last_use[victim] {
                victim = s;
            }
        }
        let evicted_addr = self.tags[victim] << self.line_shift;
        let evicted_meta = std::mem::replace(&mut self.meta[victim], meta);
        self.tags[victim] = tag;
        self.last_use[victim] = clock;
        Some((evicted_addr, evicted_meta))
    }

    /// Number of valid lines currently resident (statistics / tests).
    pub fn resident(&self) -> usize {
        self.valid.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// How many slots of set `idx` were ever filled. Fills walk the set
    /// left to right, so these form a prefix; `last_use > 0` marks them
    /// (valid or since-invalidated).
    fn materialized(&self, idx: usize) -> usize {
        let base = idx * self.ways;
        let len = (base..base + self.ways)
            .rev()
            .find(|&s| self.last_use[s] > 0)
            .map_or(0, |s| s - base + 1);
        debug_assert!(
            (base..base + len).all(|s| self.last_use[s] > 0),
            "materialized slots must be a prefix"
        );
        len
    }

    /// Exact internal state for checkpoint capture: the LRU clock plus
    /// every set's materialized slots — including invalid ones, whose
    /// presence affects future insert decisions, so they must survive a
    /// round-trip bit-for-bit. Untouched caches export no sets, exactly
    /// like the lazily-materialized layout this replaces.
    pub(crate) fn export_state(&self) -> (u64, Vec<Vec<LineSlotState<M>>>)
    where
        M: Clone,
    {
        if !self.touched {
            return (self.use_clock, Vec::new());
        }
        let sets = (0..self.set_count)
            .map(|idx| {
                let base = idx * self.ways;
                (base..base + self.materialized(idx))
                    .map(|s| {
                        (
                            self.tags[s],
                            self.meta[s].clone(),
                            self.last_use[s],
                            self.is_valid(s),
                        )
                    })
                    .collect()
            })
            .collect();
        (self.use_clock, sets)
    }

    /// Iterates over `(line_addr, &meta)` of all valid lines.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &M)> {
        let shift = self.line_shift;
        (0..self.set_count * self.ways)
            .filter(|&s| self.is_valid(s))
            .map(move |s| (self.tags[s] << shift, &self.meta[s]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache() -> SetAssocCache<u32> {
        // 4 sets x 2 ways x 64B lines = 512B.
        SetAssocCache::new(512, 2, 64)
    }

    #[test]
    fn geometry() {
        let c = cache();
        assert_eq!(c.set_count(), 4);
        assert_eq!(c.ways(), 2);
        assert_eq!(c.line_size(), 64);
        assert_eq!(c.line_addr(0x1234), 0x1200);
    }

    #[test]
    fn miss_then_hit() {
        let mut c = cache();
        assert!(c.lookup_mut(0x1000).is_none());
        assert!(c.insert(0x1000, 7).is_none());
        assert_eq!(c.lookup_mut(0x1000).copied(), Some(7));
        assert_eq!(c.lookup_mut(0x1004).copied(), Some(7), "same line");
        assert!(c.lookup_mut(0x1040).is_none(), "next line");
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = cache();
        // Three lines mapping to the same set (stride = sets * line = 256).
        c.insert(0x0000, 1);
        c.insert(0x0100, 2);
        // Touch the first so the second is LRU.
        c.lookup_mut(0x0000);
        let evicted = c.insert(0x0200, 3);
        assert_eq!(evicted, Some((0x0100, 2)));
        assert!(c.peek(0x0000).is_some());
        assert!(c.peek(0x0200).is_some());
    }

    #[test]
    fn peek_does_not_touch_lru() {
        let mut c = cache();
        c.insert(0x0000, 1);
        c.insert(0x0100, 2);
        // Peek (snoop) the first line; it must remain LRU.
        assert_eq!(c.peek(0x0000), Some(&1));
        let evicted = c.insert(0x0200, 3);
        assert_eq!(evicted, Some((0x0000, 1)));
    }

    #[test]
    fn take_removes() {
        let mut c = cache();
        c.insert(0x40, 9);
        assert_eq!(c.take(0x40), Some(9));
        assert!(c.peek(0x40).is_none());
        assert_eq!(c.take(0x40), None);
        assert_eq!(c.resident(), 0);
    }

    #[test]
    fn invalidated_slot_is_reused() {
        let mut c = cache();
        c.insert(0x0000, 1);
        c.insert(0x0100, 2);
        c.take(0x0000);
        // Reinsertion must use the freed slot, not evict.
        assert!(c.insert(0x0200, 3).is_none());
        assert_eq!(c.resident(), 2);
    }

    #[test]
    #[should_panic(expected = "already present")]
    fn double_insert_panics() {
        let mut c = cache();
        c.insert(0x40, 1);
        c.insert(0x44, 2); // same line
    }

    #[test]
    fn iter_lists_valid_lines() {
        let mut c = cache();
        c.insert(0x0000, 1);
        c.insert(0x0040, 2);
        let mut lines: Vec<(u64, u32)> = c.iter().map(|(a, m)| (a, *m)).collect();
        lines.sort_unstable();
        assert_eq!(lines, vec![(0x0000, 1), (0x0040, 2)]);
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut c = cache();
        for i in 0..4u64 {
            assert!(c.insert(i * 64, i as u32).is_none());
        }
        assert_eq!(c.resident(), 4);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_line_size_rejected() {
        SetAssocCache::<u32>::new(512, 2, 48);
    }

    #[test]
    fn resident_stays_at_associativity_across_evictions() {
        let mut c = cache();
        // Keep hammering one set well past its capacity: every insert
        // after the second must evict exactly one line, so resident()
        // never exceeds the associativity.
        for i in 0..6u64 {
            let evicted = c.insert(i * 0x100, i as u32);
            assert_eq!(evicted.is_some(), i >= 2, "insert #{i}");
            assert_eq!(c.resident(), (i as usize + 1).min(2));
        }
        // The survivors are the two most recently inserted lines.
        assert!(c.peek(0x400).is_some());
        assert!(c.peek(0x500).is_some());
        assert!(c.peek(0x300).is_none());
    }

    #[test]
    fn lru_victim_tracks_interleaved_touches() {
        let mut c = cache();
        c.insert(0x0000, 1);
        c.insert(0x0100, 2);
        // Touch both, older line last: the *newer* insert becomes LRU.
        c.lookup_mut(0x0100);
        c.lookup_mut(0x0000);
        assert_eq!(c.insert(0x0200, 3), Some((0x0100, 2)));
        // Now 0x0000 (touched before 0x0200 was inserted) is LRU.
        assert_eq!(c.insert(0x0300, 4), Some((0x0000, 1)));
    }

    #[test]
    fn take_then_reinsert_same_line_starts_fresh() {
        let mut c = cache();
        c.insert(0x0000, 1);
        c.insert(0x0100, 2);
        // Remove and re-add the older line; the reinsert fills the freed
        // slot (no eviction) and counts as the most recent use, so the
        // next conflict evicts 0x0100.
        assert_eq!(c.take(0x0000), Some(1));
        assert_eq!(c.resident(), 1);
        assert!(c.insert(0x0000, 7).is_none());
        assert_eq!(c.resident(), 2);
        assert_eq!(c.insert(0x0200, 3), Some((0x0100, 2)));
        assert_eq!(c.peek(0x0000), Some(&7));
    }

    #[test]
    #[should_panic(expected = "inserting a line that is already present")]
    fn double_insert_panic_names_the_invariant() {
        let mut c = cache();
        c.insert(0x80, 1);
        // Re-inserting after a take is fine; re-inserting a *resident*
        // line is the caller bug the full message must call out.
        c.take(0x80);
        c.insert(0x80, 2);
        c.insert(0x80, 3);
    }

    #[test]
    fn untouched_cache_exports_no_sets() {
        let c = cache();
        let (clock, sets) = c.export_state();
        assert_eq!(clock, 0);
        assert!(sets.is_empty(), "pristine caches snapshot as empty");
    }

    #[test]
    fn missed_lookup_still_materializes_the_export() {
        // The old layout allocated its sets on the first state-changing
        // probe even when it missed; snapshots see that, so the SoA
        // layout must reproduce it.
        let mut c = cache();
        assert!(c.lookup_mut(0x1000).is_none());
        let (clock, sets) = c.export_state();
        assert_eq!(clock, 1);
        assert_eq!(sets.len(), 4);
        assert!(sets.iter().all(|s| s.is_empty()));
    }

    #[test]
    fn export_carries_invalidated_slots_and_reimports_exactly() {
        let mut c = cache();
        c.insert(0x0000, 1);
        c.insert(0x0100, 2);
        c.take(0x0000); // slot 0 of set 0: invalid but materialized
        let (clock, sets) = c.export_state();
        assert_eq!(sets[0].len(), 2, "taken slot still exported");
        assert!(!sets[0][0].3 && sets[0][1].3);

        let mut back: SetAssocCache<u32> = SetAssocCache::new(512, 2, 64);
        back.import_state(clock, sets.clone());
        assert_eq!(back.export_state(), (clock, sets));
        // And the restored cache behaves identically: the freed slot is
        // refilled without an eviction.
        assert!(back.insert(0x0200, 3).is_none());
        assert_eq!(back.resident(), 2);
    }
}
