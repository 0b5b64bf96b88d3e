//! Allocation-light address-keyed lookup tables for the simulator hot
//! path: an open-addressing hash map specialized to `u64 -> u64`, and
//! the L2 sharer-presence index built on it.
//!
//! `std::collections::HashMap` would work functionally, but its SipHash
//! default and per-entry layout are measurable on the snoop path; this
//! map is a pair of flat arrays with a Fibonacci multiply-shift hash,
//! linear probing, and backward-shift deletion (no tombstones), so a
//! lookup is a handful of adjacent-word compares and steady-state
//! operation never allocates.

/// Sentinel for an empty slot. Line addresses are always aligned (low
/// bits zero), so `u64::MAX` can never be a real key.
const EMPTY: u64 = u64::MAX;

/// Knuth's 64-bit Fibonacci hashing constant.
const HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// An open-addressing `u64 -> u64` hash map with linear probing.
///
/// Capacity is a power of two; the table grows (doubling) at 3/4 load,
/// which amortizes to zero once the working set is established.
#[derive(Debug, Clone)]
pub(crate) struct AddrMap {
    keys: Vec<u64>,
    vals: Vec<u64>,
    len: usize,
    /// `capacity - 1`; capacity is a power of two.
    mask: usize,
    /// `64 - log2(capacity)`: multiply-shift takes the hash's top bits.
    shift: u32,
}

impl AddrMap {
    pub fn new() -> AddrMap {
        Self::with_capacity_pow2(64)
    }

    fn with_capacity_pow2(cap: usize) -> AddrMap {
        debug_assert!(cap.is_power_of_two());
        AddrMap {
            keys: vec![EMPTY; cap],
            vals: vec![0; cap],
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
            let k = self.keys[i];
            if k == key {
                return Some(i);
            }
            if k == EMPTY {
                return None;
            }
            i = (i + 1) & self.mask;
        }
    }

    #[inline]
    pub fn get(&self, key: u64) -> Option<u64> {
        self.find(key).map(|i| self.vals[i])
    }

    /// Inserts or overwrites `key`'s value.
    pub fn set(&mut self, key: u64, val: u64) {
        debug_assert_ne!(key, EMPTY);
        if (self.len + 1) * 4 > (self.mask + 1) * 3 {
            self.grow();
        }
        let mut i = self.home(key);
        loop {
            let k = self.keys[i];
            if k == key {
                self.vals[i] = val;
                return;
            }
            if k == EMPTY {
                self.keys[i] = key;
                self.vals[i] = val;
                self.len += 1;
                return;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Removes `key`, returning its value. Backward-shift deletion keeps
    /// every surviving entry reachable from its home slot without
    /// tombstones.
    pub fn remove(&mut self, key: u64) -> Option<u64> {
        let mut i = self.find(key)?;
        let val = self.vals[i];
        self.len -= 1;
        let mask = self.mask;
        let mut j = i;
        loop {
            j = (j + 1) & mask;
            if self.keys[j] == EMPTY {
                break;
            }
            let home = self.home(self.keys[j]);
            // Entry `j` may slide into the hole at `i` only if its home
            // slot does not lie cyclically within (i, j] — otherwise the
            // move would strand it before its probe start.
            let stays = if i <= j {
                i < home && home <= j
            } else {
                home <= j || i < home
            };
            if !stays {
                self.keys[i] = self.keys[j];
                self.vals[i] = self.vals[j];
                i = j;
            }
        }
        self.keys[i] = EMPTY;
        Some(val)
    }

    fn grow(&mut self) {
        let cap = (self.mask + 1) * 2;
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY; cap]);
        let old_vals = std::mem::take(&mut self.vals);
        self.vals = vec![0; cap];
        self.mask = cap - 1;
        self.shift = 64 - cap.trailing_zeros();
        self.len = 0;
        for (k, v) in old_keys.into_iter().zip(old_vals) {
            if k != EMPTY {
                self.set(k, v);
            }
        }
    }
}

/// L2 sharer-presence index: for every resident line address, a bitmask
/// of which cores' L2s hold it (bit `p` = core `p`).
///
/// # Invariants
///
/// * bit `p` is set for `addr` **iff** `l2[p].peek(addr).is_some()` —
///   maintained at the three membership-changing sites (`install_l2`'s
///   insert, its victim eviction, and `snoop_write`'s invalidating
///   take); MESI state *changes* (degrade, upgrade) never touch it.
/// * an entry with mask `0` is removed, so the map's length equals the
///   number of distinct resident line addresses.
/// * it is derived state: snapshots never carry it; restore rebuilds it
///   from the imported L2 arrays.
///
/// Only maintained for systems of at most 64 cores (one mask word);
/// larger systems disable it and snoop by scanning every core, exactly
/// as before.
#[derive(Debug, Clone)]
pub(crate) struct SharerIndex {
    map: Option<AddrMap>,
}

impl SharerIndex {
    pub fn new(num_cores: usize) -> SharerIndex {
        SharerIndex {
            map: (num_cores <= 64).then(AddrMap::new),
        }
    }

    /// The sharer mask for `addr`: `Some(0)` means "indexed, no sharers",
    /// `None` means the index is disabled (> 64 cores) and the caller
    /// must scan.
    #[inline]
    pub fn mask(&self, addr: u64) -> Option<u64> {
        self.map.as_ref().map(|m| m.get(addr).unwrap_or(0))
    }

    /// Records that core `pid`'s L2 now holds `addr`.
    #[inline]
    pub fn add(&mut self, pid: usize, addr: u64) {
        if let Some(m) = &mut self.map {
            let bits = m.get(addr).unwrap_or(0) | 1 << pid;
            m.set(addr, bits);
        }
    }

    /// Records that core `pid`'s L2 dropped `addr`.
    #[inline]
    pub fn remove(&mut self, pid: usize, addr: u64) {
        if let Some(m) = &mut self.map {
            if let Some(bits) = m.get(addr) {
                let bits = bits & !(1 << pid);
                if bits == 0 {
                    m.remove(addr);
                } else {
                    m.set(addr, bits);
                }
            }
        }
    }

    /// Number of distinct indexed line addresses (tests).
    #[cfg(test)]
    pub fn indexed_lines(&self) -> Option<usize> {
        self.map.as_ref().map(AddrMap::len)
    }
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
    index: AddrMap,
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
        assert_eq!(idx.mask(0x1000), Some(0));
        idx.add(3, 0x1000);
        idx.add(5, 0x1000);
        assert_eq!(idx.mask(0x1000), Some(1 << 3 | 1 << 5));
        idx.remove(3, 0x1000);
        assert_eq!(idx.mask(0x1000), Some(1 << 5));
        idx.remove(5, 0x1000);
        assert_eq!(idx.mask(0x1000), Some(0));
        assert_eq!(idx.indexed_lines(), Some(0), "empty masks are evicted");
        // Removing an absent (pid, addr) is a no-op, not a panic.
        idx.remove(2, 0x2000);
    }

    #[test]
    fn sharer_index_disabled_beyond_64_cores() {
        let mut idx = SharerIndex::new(65);
        idx.add(64, 0x1000);
        assert_eq!(idx.mask(0x1000), None, "callers must fall back to scanning");
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
