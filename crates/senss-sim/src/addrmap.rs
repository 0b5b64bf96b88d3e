//! Allocation-light address-keyed lookup tables for the simulator hot
//! path: an open-addressing hash map keyed by line address, and the L2
//! sharer index built on it.
//!
//! `std::collections::HashMap` would work functionally, but its SipHash
//! default and per-entry layout are measurable on the snoop path; this
//! map is one flat array of `(key, value)` slots with a Fibonacci
//! multiply-shift hash, linear probing, and backward-shift deletion (no
//! tombstones), so a lookup is a handful of adjacent-slot compares that
//! land on its value, and steady-state operation never allocates.

use std::ops::{BitAnd, BitOr, Not, Shl};

/// Sentinel for an empty slot. Line addresses are always aligned (low
/// bits zero), so `u64::MAX` can never be a real key.
const EMPTY: u64 = u64::MAX;

/// Knuth's 64-bit Fibonacci hashing constant.
const HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// An open-addressing `u64 -> V` hash map with linear probing.
///
/// Keys and values share one slot array, so a probe that finds its key
/// has its value in the same cache line. Capacity is a power of two;
/// the table grows (doubling) at 3/4 load, which amortizes to zero once
/// the working set is established.
#[derive(Debug, Clone)]
pub(crate) struct AddrMap<V> {
    /// `(key, value)`; a key of [`EMPTY`] marks a free slot.
    slots: Vec<(u64, V)>,
    len: usize,
    /// `capacity - 1`; capacity is a power of two.
    mask: usize,
    /// `64 - log2(capacity)`: multiply-shift takes the hash's top bits.
    shift: u32,
}

impl<V: Copy + Default> AddrMap<V> {
    pub fn new() -> AddrMap<V> {
        Self::with_capacity_pow2(64)
    }

    fn with_capacity_pow2(cap: usize) -> AddrMap<V> {
        debug_assert!(cap.is_power_of_two());
        AddrMap {
            slots: vec![(EMPTY, V::default()); cap],
            len: 0,
            mask: cap - 1,
            shift: 64 - cap.trailing_zeros(),
        }
    }

    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(HASH_MUL) >> self.shift) as usize
    }

    /// The slot holding `key`, if present.
    #[inline]
    fn find(&self, key: u64) -> Option<usize> {
        debug_assert_ne!(key, EMPTY);
        let mut i = self.home(key);
        loop {
            let k = self.slots[i].0;
            if k == key {
                return Some(i);
            }
            if k == EMPTY {
                return None;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// The first free slot on `key`'s probe path (`key` must be absent).
    fn vacant(&self, key: u64) -> usize {
        let mut i = self.home(key);
        while self.slots[i].0 != EMPTY {
            i = (i + 1) & self.mask;
        }
        i
    }

    #[inline]
    pub fn get(&self, key: u64) -> Option<V> {
        self.find(key).map(|i| self.slots[i].1)
    }

    #[inline]
    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        self.find(key).map(|i| &mut self.slots[i].1)
    }

    /// `key`'s value, inserting `V::default()` first if it is absent:
    /// a read-modify-write in one probe.
    pub fn entry(&mut self, key: u64) -> &mut V {
        debug_assert_ne!(key, EMPTY);
        let mut i = self.home(key);
        loop {
            let k = self.slots[i].0;
            if k == key {
                return &mut self.slots[i].1;
            }
            if k == EMPTY {
                break;
            }
            i = (i + 1) & self.mask;
        }
        if (self.len + 1) * 4 > (self.mask + 1) * 3 {
            self.grow();
            i = self.vacant(key);
        }
        self.len += 1;
        self.slots[i] = (key, V::default());
        &mut self.slots[i].1
    }

    /// Inserts or overwrites `key`'s value.
    pub fn set(&mut self, key: u64, val: V) {
        *self.entry(key) = val;
    }

    /// Removes `key`, returning its value.
    pub fn remove(&mut self, key: u64) -> Option<V> {
        let i = self.find(key)?;
        Some(self.remove_at(i))
    }

    /// Applies `f` to `key`'s value, if present, and removes the entry
    /// when `f` returns `false`: a read-modify-write in one probe.
    pub fn update_or_remove(&mut self, key: u64, f: impl FnOnce(&mut V) -> bool) {
        if let Some(i) = self.find(key) {
            if !f(&mut self.slots[i].1) {
                self.remove_at(i);
            }
        }
    }

    /// Empties slot `i`, returning its value. Backward-shift deletion
    /// keeps every surviving entry reachable from its home slot without
    /// tombstones.
    fn remove_at(&mut self, mut i: usize) -> V {
        let val = self.slots[i].1;
        self.len -= 1;
        let mask = self.mask;
        let mut j = i;
        loop {
            j = (j + 1) & mask;
            let k = self.slots[j].0;
            if k == EMPTY {
                break;
            }
            let home = self.home(k);
            // Entry `j` may slide into the hole at `i` only if its home
            // slot does not lie cyclically within (i, j] — otherwise the
            // move would strand it before its probe start.
            let stays = if i <= j {
                i < home && home <= j
            } else {
                home <= j || i < home
            };
            if !stays {
                self.slots[i] = self.slots[j];
                i = j;
            }
        }
        self.slots[i].0 = EMPTY;
        val
    }

    fn grow(&mut self) {
        let cap = (self.mask + 1) * 2;
        let old = std::mem::replace(&mut self.slots, vec![(EMPTY, V::default()); cap]);
        self.mask = cap - 1;
        self.shift = 64 - cap.trailing_zeros();
        for (k, v) in old {
            if k != EMPTY {
                let i = self.vacant(k);
                self.slots[i] = (k, v);
            }
        }
    }
}

/// The L2s holding one line: bit `p` of `present` is set iff core `p`'s
/// L2 holds it; bit `p` of `em` iff it holds it Exclusive or Modified.
/// `em` is always a subset of `present`.
///
/// The index stores the masks as `u32` words for systems of up to 32
/// cores, so a map slot is 16 bytes, and as `u64` words (24-byte slots)
/// up to 64; queries always answer with `u64` masks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Holders<M = u64> {
    pub present: M,
    pub em: M,
}

/// A mask word of a [`SharerIndex`] entry: `u32` or `u64`.
pub(crate) trait MaskWord:
    Copy
    + Default
    + From<u8>
    + Into<u64>
    + BitAnd<Output = Self>
    + BitOr<Output = Self>
    + Not<Output = Self>
    + Shl<usize, Output = Self>
{
}

impl<M> MaskWord for M where
    M: Copy
        + Default
        + From<u8>
        + Into<u64>
        + BitAnd<Output = M>
        + BitOr<Output = M>
        + Not<Output = M>
        + Shl<usize, Output = M>
{
}

/// Core `pid`'s bit.
#[inline]
fn bit<M: MaskWord>(pid: usize) -> M {
    M::from(1) << pid
}

impl<M: MaskWord> Holders<M> {
    #[inline]
    fn widen(self) -> Holders {
        Holders {
            present: self.present.into(),
            em: self.em.into(),
        }
    }
}

/// The index's storage, sized by core count.
#[derive(Debug, Clone)]
enum Masks {
    Narrow(AddrMap<Holders<u32>>),
    Wide(AddrMap<Holders<u64>>),
    /// More than 64 cores: no index, snoops scan.
    Off,
}

/// Runs `$body` with `$m` bound to the live map, whichever its word
/// size; evaluates to `$off` when the index is disabled.
macro_rules! with_map {
    ($masks:expr, $m:ident => $body:expr, $off:expr) => {
        match $masks {
            Masks::Narrow($m) => $body,
            Masks::Wide($m) => $body,
            Masks::Off => $off,
        }
    };
}

/// L2 sharer index: for every resident line address, which cores' L2s
/// hold it and which of those hold it in E or M ([`Holders`]).
///
/// # Invariants
///
/// * bit `p` of `present` is set for `addr` **iff**
///   `l2[p].peek(addr).is_some()` — maintained at the three
///   membership-changing sites (`install_l2`'s insert, its victim
///   eviction, and `snoop_write`'s invalidating take).
/// * bit `p` of `em` is set **iff** `l2[p].peek(addr)` is `Exclusive`
///   or `Modified` — set by `install_l2` (an E/M fill, or its re-upgrade
///   of a resident line to M), the `Upgrade` grant and `MarkHashDirty`;
///   cleared by the read-snoop degrade to S and by the two removals.
///   Silent E→M writes stay inside the mask and never touch it.
/// * `em` is a mask, not one owner: `MarkHashDirty` makes a hash line M
///   before its `Upgrade` invalidates the other copies, so a line can be
///   M in one L2 while S in others (or M in two).
/// * an entry whose `present` is `0` is removed, so the map's length
///   equals the number of distinct resident line addresses.
/// * it is derived state: snapshots never carry it; restore rebuilds it
///   from the imported L2 arrays.
///
/// Only maintained for systems of at most 64 cores (one mask word);
/// larger systems disable it and snoop by scanning every core.
#[derive(Debug, Clone)]
pub(crate) struct SharerIndex {
    masks: Masks,
}

impl SharerIndex {
    pub fn new(num_cores: usize) -> SharerIndex {
        SharerIndex {
            masks: match num_cores {
                0..=32 => Masks::Narrow(AddrMap::new()),
                33..=64 => Masks::Wide(AddrMap::new()),
                _ => Masks::Off,
            },
        }
    }

    /// The holders of `addr`: `Some` with empty masks means "indexed,
    /// no holders", `None` means the index is disabled (> 64 cores) and
    /// the caller must scan.
    #[inline]
    pub fn holders(&self, addr: u64) -> Option<Holders> {
        with_map!(&self.masks, m => Some(m.get(addr).unwrap_or_default().widen()), None)
    }

    /// Records that core `pid`'s L2 now holds `addr`, in E or M if `em`.
    #[inline]
    pub fn add(&mut self, pid: usize, addr: u64, em: bool) {
        with_map!(&mut self.masks, m => add(m, pid, addr, em), ())
    }

    /// Records that core `pid`'s resident copy of `addr` became E or M.
    #[inline]
    pub fn set_em(&mut self, pid: usize, addr: u64) {
        with_map!(&mut self.masks, m => set_em(m, pid, addr), ())
    }

    /// A read snoop by `pid`: returns the holders of `addr` as they were
    /// and clears every E/M bit but `pid`'s, since the snoop degrades
    /// those copies to S.
    #[inline]
    pub fn degrade_for_read(&mut self, pid: usize, addr: u64) -> Option<Holders> {
        with_map!(&mut self.masks, m => Some(degrade_for_read(m, pid, addr)), None)
    }

    /// Records that core `pid`'s L2 dropped `addr`.
    #[inline]
    pub fn remove(&mut self, pid: usize, addr: u64) {
        with_map!(&mut self.masks, m => remove(m, pid, addr), ())
    }

    /// Number of distinct indexed line addresses (tests).
    #[cfg(test)]
    pub fn indexed_lines(&self) -> Option<usize> {
        with_map!(&self.masks, m => Some(m.len()), None)
    }
}

#[inline]
fn add<M: MaskWord>(m: &mut AddrMap<Holders<M>>, pid: usize, addr: u64, em: bool) {
    let h = m.entry(addr);
    h.present = h.present | bit(pid);
    if em {
        h.em = h.em | bit(pid);
    }
}

#[inline]
fn set_em<M: MaskWord>(m: &mut AddrMap<Holders<M>>, pid: usize, addr: u64) {
    let h = m.get_mut(addr);
    debug_assert!(
        h.as_ref().is_some_and(|h| h.present.into() & 1 << pid != 0),
        "core {pid} gains E/M on {addr:#x} without holding it"
    );
    if let Some(h) = h {
        h.em = h.em | bit(pid);
    }
}

#[inline]
fn degrade_for_read<M: MaskWord>(m: &mut AddrMap<Holders<M>>, pid: usize, addr: u64) -> Holders {
    match m.get_mut(addr) {
        Some(h) => {
            let before = h.widen();
            h.em = h.em & bit(pid);
            before
        }
        None => Holders::default(),
    }
}

#[inline]
fn remove<M: MaskWord>(m: &mut AddrMap<Holders<M>>, pid: usize, addr: u64) {
    m.update_or_remove(addr, |h| {
        h.present = h.present & !bit::<M>(pid);
        h.em = h.em & !bit::<M>(pid);
        h.present.into() != 0
    });
}

/// Lines with a blocking fill/upgrade in flight: `(addr, completion
/// cycle)` pairs. Conflicting grants are deferred until the completion
/// passes (split-transaction NACK/retry), preventing in-flight line
/// stealing.
///
/// The vec's push/`swap_remove` order is snapshot-visible (checkpoints
/// carry it verbatim), so the vec stays authoritative; an [`AddrMap`]
/// from address to vec position rides along for O(1) conflict checks,
/// replacing the old linear scans. Addresses are unique by
/// construction: a repeat grant for an in-flight line updates its
/// completion in place.
#[derive(Debug, Clone)]
pub(crate) struct InflightLines {
    entries: Vec<(u64, u64)>,
    /// addr -> index into `entries`.
    index: AddrMap<u64>,
}

impl InflightLines {
    pub fn new() -> InflightLines {
        InflightLines {
            entries: Vec::new(),
            index: AddrMap::new(),
        }
    }

    /// Rebuilds from a checkpoint's entry list, preserving its order.
    pub fn from_entries(entries: Vec<(u64, u64)>) -> InflightLines {
        let mut index = AddrMap::new();
        for (i, &(addr, _)) in entries.iter().enumerate() {
            index.set(addr, i as u64);
        }
        InflightLines { entries, index }
    }

    /// The entry list in its authoritative (snapshot) order.
    pub fn entries(&self) -> &[(u64, u64)] {
        &self.entries
    }

    /// The completion cycle of `addr`'s in-flight transaction, if any.
    #[inline]
    pub fn completion(&self, addr: u64) -> Option<u64> {
        self.index.get(addr).map(|i| self.entries[i as usize].1)
    }

    /// Records (or extends) an in-flight transaction on `addr`.
    pub fn set(&mut self, addr: u64, completion: u64) {
        match self.index.get(addr) {
            Some(i) => self.entries[i as usize].1 = completion,
            None => {
                self.index.set(addr, self.entries.len() as u64);
                self.entries.push((addr, completion));
            }
        }
    }

    /// Drops `addr`'s entry once its completion has passed. A stale
    /// `TxnDone` for a fill that was superseded (completion pushed out
    /// by a retry) leaves the entry in place.
    pub fn remove_if_elapsed(&mut self, addr: u64, now: u64) {
        let Some(i) = self.index.get(addr) else {
            return;
        };
        let i = i as usize;
        if self.entries[i].1 > now {
            return;
        }
        self.entries.swap_remove(i);
        self.index.remove(addr);
        if i < self.entries.len() {
            self.index.set(self.entries[i].0, i as u64);
        }
    }

    /// The earliest completion strictly after `now` (retry scheduling;
    /// rare path, linear over a handful of entries).
    pub fn earliest_after(&self, now: u64) -> Option<u64> {
        self.entries
            .iter()
            .map(|&(_, done)| done)
            .filter(|&t| t > now)
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use senss_crypto::rng::SplitMix64;
    use std::collections::HashMap;

    /// The map agrees with `std::collections::HashMap` under random
    /// interleaved set/get/remove sequences, across growth and heavy
    /// deletion (the backward-shift path).
    #[test]
    fn addrmap_matches_std_hashmap() {
        let mut rng = SplitMix64::new(0xA11);
        for _ in 0..32 {
            let mut real = AddrMap::new();
            let mut reference: HashMap<u64, u64> = HashMap::new();
            for _ in 0..4_000 {
                // A small key universe forces collisions and re-use.
                let key = rng.next_below(512) * 64;
                match rng.next_below(4) {
                    0 | 1 => {
                        let val = rng.next_u64();
                        real.set(key, val);
                        reference.insert(key, val);
                    }
                    2 => assert_eq!(real.get(key), reference.get(&key).copied()),
                    _ => assert_eq!(real.remove(key), reference.remove(&key)),
                }
                assert_eq!(real.len(), reference.len());
            }
            for (&k, &v) in &reference {
                assert_eq!(real.get(k), Some(v), "final state diverged at {k:#x}");
            }
        }
    }

    /// Clustered keys (sequential line addresses hash adjacently often)
    /// exercise long probe chains and the deletion shift across the
    /// table wrap-around.
    #[test]
    fn addrmap_survives_adversarial_clustering() {
        let mut real = AddrMap::new();
        let mut reference: HashMap<u64, u64> = HashMap::new();
        for i in 0..256u64 {
            real.set(i * 64, i);
            reference.insert(i * 64, i);
        }
        // Delete every other key, then re-add with new values.
        for i in (0..256u64).step_by(2) {
            assert_eq!(real.remove(i * 64), reference.remove(&(i * 64)));
        }
        for i in (0..256u64).step_by(2) {
            real.set(i * 64, i + 1000);
            reference.insert(i * 64, i + 1000);
        }
        for (&k, &v) in &reference {
            assert_eq!(real.get(k), Some(v));
        }
        assert_eq!(real.len(), reference.len());
    }

    #[test]
    fn sharer_index_tracks_bits_and_drops_empty_entries() {
        let mut idx = SharerIndex::new(8);
        let holders = |present, em| Some(Holders { present, em });
        assert_eq!(idx.holders(0x1000), holders(0, 0));
        idx.add(3, 0x1000, true);
        idx.add(5, 0x1000, false);
        assert_eq!(idx.holders(0x1000), holders(1 << 3 | 1 << 5, 1 << 3));
        idx.remove(3, 0x1000);
        assert_eq!(idx.holders(0x1000), holders(1 << 5, 0));
        idx.set_em(5, 0x1000);
        assert_eq!(idx.holders(0x1000), holders(1 << 5, 1 << 5));
        idx.remove(5, 0x1000);
        assert_eq!(idx.holders(0x1000), holders(0, 0));
        assert_eq!(idx.indexed_lines(), Some(0), "empty masks are evicted");
        // Removing an absent (pid, addr) is a no-op, not a panic.
        idx.remove(2, 0x2000);
    }

    /// A read snoop reports the holders as they were and leaves only the
    /// requester's own E/M bit standing.
    #[test]
    fn read_snoop_degrades_every_other_em_holder() {
        let mut idx = SharerIndex::new(8);
        for (pid, em) in [(1, true), (2, false), (6, true), (7, true)] {
            idx.add(pid, 0x40, em);
        }
        let before = Holders {
            present: 1 << 1 | 1 << 2 | 1 << 6 | 1 << 7,
            em: 1 << 1 | 1 << 6 | 1 << 7,
        };
        assert_eq!(idx.degrade_for_read(7, 0x40), Some(before));
        assert_eq!(
            idx.holders(0x40),
            Some(Holders {
                present: before.present,
                em: 1 << 7
            })
        );
        assert_eq!(idx.degrade_for_read(0, 0x80), Some(Holders::default()));
        assert_eq!(
            idx.indexed_lines(),
            Some(1),
            "a snoop of a miss adds nothing"
        );
    }

    /// The index covers every core up to 64, E/M bits included, across
    /// the switch from `u32` to `u64` words after 32 cores; a 65-core
    /// system disables it and every query says "scan".
    #[test]
    fn sharer_index_enabled_at_64_cores_disabled_at_65() {
        for cores in [32, 33, 64] {
            let mut idx = SharerIndex::new(cores);
            let top_pid = cores - 1;
            let top = 1u64 << top_pid;
            idx.add(top_pid, 0x1000, true);
            idx.add(0, 0x1000, false);
            assert_eq!(
                idx.holders(0x1000),
                Some(Holders {
                    present: top | 1,
                    em: top
                }),
                "{cores} cores"
            );
            assert_eq!(
                idx.degrade_for_read(0, 0x1000).map(|h| h.em),
                Some(top),
                "core {top_pid}'s E/M bit is visible to a read snoop"
            );
            assert_eq!(idx.holders(0x1000).map(|h| h.em), Some(0));
            idx.set_em(top_pid, 0x1000);
            idx.remove(top_pid, 0x1000);
            assert_eq!(idx.holders(0x1000), Some(Holders { present: 1, em: 0 }));
        }

        let mut wide = SharerIndex::new(65);
        wide.add(64, 0x1000, true);
        wide.set_em(64, 0x1000);
        assert_eq!(
            wide.holders(0x1000),
            None,
            "callers must fall back to scanning"
        );
        assert_eq!(wide.degrade_for_read(0, 0x1000), None);
        assert_eq!(wide.indexed_lines(), None);
    }

    /// The indexed in-flight table must reproduce the *entry order* of
    /// the plain linear-scan vec it replaced — checkpoints capture that
    /// order verbatim, so any divergence would change snapshot bytes.
    #[test]
    fn inflight_lines_order_matches_reference_vec() {
        let mut rng = SplitMix64::new(0x1F1);
        for _ in 0..32 {
            let mut real = InflightLines::new();
            let mut reference: Vec<(u64, u64)> = Vec::new();
            let mut now = 0;
            for _ in 0..500 {
                now += rng.next_below(20);
                let addr = rng.next_below(16) * 64;
                if rng.next_below(3) < 2 {
                    let done = now + rng.next_below(100);
                    match reference.iter_mut().find(|e| e.0 == addr) {
                        Some(e) => e.1 = done,
                        None => reference.push((addr, done)),
                    }
                    real.set(addr, done);
                } else {
                    if let Some(i) = reference.iter().position(|&(a, _)| a == addr) {
                        if reference[i].1 <= now {
                            reference.swap_remove(i);
                        }
                    }
                    real.remove_if_elapsed(addr, now);
                }
                assert_eq!(real.entries(), reference.as_slice());
                let probe = rng.next_below(16) * 64;
                assert_eq!(
                    real.completion(probe).is_some_and(|d| d > now),
                    reference.iter().any(|&(a, d)| a == probe && d > now),
                    "conflict check diverged"
                );
                assert_eq!(
                    real.earliest_after(now),
                    reference.iter().map(|&(_, d)| d).filter(|&t| t > now).min()
                );
            }
            let back = InflightLines::from_entries(reference.clone());
            assert_eq!(back.entries(), reference.as_slice());
        }
    }
}
