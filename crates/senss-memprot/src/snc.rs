//! The sequence-number cache (SNC) for fast OTP memory encryption (§2.1).
//!
//! Each memory line's pad is `AES(address ‖ seq)`; the per-line sequence
//! number increments on every write-back so pads never repeat. Sequence
//! numbers live in an on-chip cache: the paper uses a *perfect* SNC in its
//! Figure 10 experiments ("the difference between a perfect SNC and large
//! SNC is small"), and this module provides both the perfect variant and a
//! finite LRU one for sensitivity studies.

use std::collections::HashMap;

/// On-chip sequence-number cache.
#[derive(Debug, Clone)]
pub struct SeqNumCache {
    /// None = perfect (unbounded); Some(n) = capacity of n entries, LRU.
    capacity: Option<usize>,
    entries: HashMap<u64, (u64, u64)>, // line -> (seq, last_use)
    clock: u64,
    hits: u64,
    misses: u64,
}

impl SeqNumCache {
    /// A perfect (unbounded) SNC — the paper's configuration.
    pub fn perfect() -> SeqNumCache {
        SeqNumCache {
            capacity: None,
            entries: HashMap::new(),
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// A finite SNC with `capacity` entries, LRU-replaced.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> SeqNumCache {
        assert!(capacity > 0, "capacity must be positive");
        SeqNumCache {
            capacity: Some(capacity),
            entries: HashMap::new(),
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn touch(&mut self, line: u64) {
        self.clock += 1;
        if let Some(e) = self.entries.get_mut(&line) {
            e.1 = self.clock;
        }
    }

    fn maybe_evict(&mut self) {
        if let Some(cap) = self.capacity {
            while self.entries.len() > cap {
                let victim = self
                    .entries
                    .iter()
                    .min_by_key(|(_, (_, lu))| *lu)
                    .map(|(k, _)| *k)
                    .expect("non-empty");
                self.entries.remove(&victim);
            }
        }
    }

    /// The current sequence number for a line (0 if never written). A
    /// lookup that finds the entry is a hit; otherwise a miss (the number
    /// must be re-fetched from its in-memory table — evicted entries are
    /// conceptually backed by memory, so the value is still 0-defaulted
    /// here only for never-written lines).
    pub fn current(&mut self, line: u64) -> u64 {
        if self.entries.contains_key(&line) {
            self.hits += 1;
            self.touch(line);
            self.entries[&line].0
        } else {
            self.misses += 1;
            self.clock += 1;
            self.entries.insert(line, (0, self.clock));
            self.maybe_evict();
            0
        }
    }

    /// Increments the line's sequence number for a write-back and returns
    /// the new value.
    pub fn advance(&mut self, line: u64) -> u64 {
        let cur = self.current(line);
        let next = cur + 1;
        self.clock += 1;
        self.entries.insert(line, (next, self.clock));
        self.maybe_evict();
        next
    }

    /// Checkpoint capture: `(entries as (line, seq, last_use) sorted by
    /// line, clock, hits, misses)`. Sorted so equal caches always export
    /// identically regardless of `HashMap` iteration order.
    pub fn export_state(&self) -> (Vec<(u64, u64, u64)>, u64, u64, u64) {
        let mut entries: Vec<(u64, u64, u64)> = self
            .entries
            .iter()
            .map(|(&line, &(seq, last_use))| (line, seq, last_use))
            .collect();
        entries.sort_unstable();
        (entries, self.clock, self.hits, self.misses)
    }

    /// Checkpoint restore onto a configuration-identical cache.
    ///
    /// # Panics
    ///
    /// Panics if the entry count exceeds a finite cache's capacity.
    pub fn restore_state(
        &mut self,
        entries: &[(u64, u64, u64)],
        clock: u64,
        hits: u64,
        misses: u64,
    ) {
        if let Some(cap) = self.capacity {
            assert!(
                entries.len() <= cap,
                "snapshot has {} SNC entries, capacity is {cap}",
                entries.len()
            );
        }
        self.entries = entries
            .iter()
            .map(|&(line, seq, last_use)| (line, (seq, last_use)))
            .collect();
        self.clock = clock;
        self.hits = hits;
        self.misses = misses;
    }

    /// Lookup hits.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookup misses.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit rate over all lookups.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_lines_start_at_zero() {
        let mut c = SeqNumCache::perfect();
        assert_eq!(c.current(0x1000), 0);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn advance_increments_monotonically() {
        let mut c = SeqNumCache::perfect();
        assert_eq!(c.advance(0x40), 1);
        assert_eq!(c.advance(0x40), 2);
        assert_eq!(c.advance(0x40), 3);
        assert_eq!(c.current(0x40), 3);
    }

    #[test]
    fn distinct_lines_are_independent() {
        let mut c = SeqNumCache::perfect();
        c.advance(0x00);
        c.advance(0x00);
        assert_eq!(c.current(0x40), 0);
    }

    #[test]
    fn perfect_cache_always_hits_after_first_touch() {
        let mut c = SeqNumCache::perfect();
        for line in 0..1000u64 {
            c.current(line * 64);
        }
        for line in 0..1000u64 {
            c.current(line * 64);
        }
        assert_eq!(c.misses(), 1000);
        assert_eq!(c.hits(), 1000);
        assert!((c.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn finite_cache_evicts_lru() {
        let mut c = SeqNumCache::with_capacity(2);
        c.current(0x00);
        c.current(0x40);
        c.current(0x00); // touch 0x00 so 0x40 is LRU
        c.current(0x80); // evicts 0x40
        assert_eq!(c.hits(), 1);
        // 0x40 is gone: a fresh lookup misses again.
        c.current(0x40);
        assert_eq!(c.misses(), 4);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        SeqNumCache::with_capacity(0);
    }
}
