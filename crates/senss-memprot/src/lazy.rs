//! LHash-style lazy memory-integrity verification (Suh et al., MICRO'03).
//!
//! The paper's §2.2 and §7.7 point out that the *lazy* scheme ("LHash")
//! cuts CHash's ~25% overhead to ~5% and "will also be very effective in
//! SENSS". Instead of verifying a Merkle path on every fill, the
//! processor keeps two **multiset hashes** in trusted on-chip storage:
//!
//! * `WriteHash` — folds every (address, value, timestamp) the processor
//!   writes to memory,
//! * `ReadHash` — folds every (address, value, timestamp) it reads back.
//!
//! At a verification point the processor sweeps the untrusted memory,
//! folds each line's current (address, value, timestamp) into `ReadHash`,
//! folds the initial contents into `WriteHash`, and compares. Any
//! substitution, replay of a stale (value, timestamp) pair, or dropped
//! write leaves the multisets unequal with overwhelming probability.
//!
//! [`MultisetHash`] is the additive (order-independent) hash;
//! [`LazyVerifier`] is the full read/write/verify protocol over an
//! in-crate model of untrusted memory that attacks can tamper with.

use senss_crypto::sha256::Sha256;
use std::collections::HashMap;

/// An order-independent multiset hash: elements are hashed with SHA-256
/// and combined by wrapping addition over two 128-bit lanes. Adding the
/// same multiset of elements in any order yields the same value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MultisetHash {
    lo: u128,
    hi: u128,
}

impl MultisetHash {
    /// The empty multiset.
    pub fn new() -> MultisetHash {
        MultisetHash::default()
    }

    /// Folds one element into the multiset.
    pub fn add(&mut self, element: &[u8]) {
        let d = Sha256::digest(element);
        let lo = u128::from_le_bytes(d[..16].try_into().expect("16 bytes"));
        let hi = u128::from_le_bytes(d[16..].try_into().expect("16 bytes"));
        self.lo = self.lo.wrapping_add(lo);
        self.hi = self.hi.wrapping_add(hi);
    }

    /// Folds an (address, value, timestamp) memory record.
    pub fn add_record(&mut self, addr: u64, value: &[u8], timestamp: u64) {
        let mut buf = Vec::with_capacity(16 + value.len());
        buf.extend_from_slice(&addr.to_le_bytes());
        buf.extend_from_slice(&timestamp.to_le_bytes());
        buf.extend_from_slice(value);
        self.add(&buf);
    }
}

/// Why lazy verification failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LazyViolation {
    /// A read observed a timestamp from the future (simple freshness
    /// check that catches crude forgeries immediately).
    TimestampFromFuture {
        /// Offending line.
        addr: u64,
    },
    /// The final multiset comparison failed (substitution/replay/drop).
    MultisetMismatch,
}

/// The lazy verifier plus its model of untrusted memory.
#[derive(Debug, Clone)]
pub struct LazyVerifier {
    write_hash: MultisetHash,
    read_hash: MultisetHash,
    timer: u64,
    line_bytes: usize,
    /// The *untrusted* memory: (value, timestamp) per line. Exposed for
    /// tampering via [`LazyVerifier::tamper`].
    memory: HashMap<u64, (Vec<u8>, u64)>,
    reads: u64,
    writes: u64,
}

impl LazyVerifier {
    /// Creates a verifier over lines of `line_bytes`.
    ///
    /// # Panics
    ///
    /// Panics if `line_bytes` is zero.
    pub fn new(line_bytes: usize) -> LazyVerifier {
        assert!(line_bytes > 0, "line size must be positive");
        LazyVerifier {
            write_hash: MultisetHash::new(),
            read_hash: MultisetHash::new(),
            timer: 0,
            line_bytes,
            memory: HashMap::new(),
            reads: 0,
            writes: 0,
        }
    }

    /// Processor writes `value` back to memory at `addr`. The previous
    /// record (if any) is *consumed* into `ReadHash` — in LHash every
    /// memory write replaces a record that was logged when written, so
    /// the books balance (a line's records alternate W, R, W, R, …).
    ///
    /// # Panics
    ///
    /// Panics if `value` is not exactly one line.
    pub fn write(&mut self, addr: u64, value: Vec<u8>) {
        assert_eq!(value.len(), self.line_bytes, "line-sized writes only");
        if let Some((old, ts)) = self.memory.get(&addr).cloned() {
            self.read_hash.add_record(addr, &old, ts);
        }
        self.timer += 1;
        self.write_hash.add_record(addr, &value, self.timer);
        self.memory.insert(addr, (value, self.timer));
        self.writes += 1;
    }

    /// Processor reads `addr` back from memory, logging the observation.
    ///
    /// # Errors
    ///
    /// Returns [`LazyViolation::TimestampFromFuture`] immediately if the
    /// stored timestamp exceeds the trusted timer.
    pub fn read(&mut self, addr: u64) -> Result<Vec<u8>, LazyViolation> {
        let existing = self.memory.get(&addr).cloned();
        let value = match existing {
            Some((value, ts)) => {
                if ts > self.timer {
                    return Err(LazyViolation::TimestampFromFuture { addr });
                }
                // Consume the stored record…
                self.read_hash.add_record(addr, &value, ts);
                value
            }
            // Untouched line: default contents, no record to consume.
            None => vec![0u8; self.line_bytes],
        };
        self.reads += 1;
        // …and re-log it with a fresh timestamp, so replaying the old
        // (value, timestamp) pair later is stale (the LHash discipline:
        // every read is paired with a logged re-write).
        self.timer += 1;
        self.write_hash.add_record(addr, &value, self.timer);
        self.memory.insert(addr, (value.clone(), self.timer));
        Ok(value)
    }

    /// Adversary access: overwrite memory behind the processor's back.
    pub fn tamper(&mut self, addr: u64, value: Vec<u8>, timestamp: u64) {
        self.memory.insert(addr, (value, timestamp));
    }

    /// The verification sweep: folds the final memory state into
    /// `ReadHash` and compares with `WriteHash` (zero-initialized lines
    /// contribute to neither side).
    ///
    /// # Errors
    ///
    /// Returns [`LazyViolation::MultisetMismatch`] when the histories
    /// disagree.
    pub fn verify(&self) -> Result<(), LazyViolation> {
        let mut read_final = self.read_hash;
        for (&addr, (value, ts)) in &self.memory {
            read_final.add_record(addr, value, *ts);
        }
        if read_final == self.write_hash {
            Ok(())
        } else {
            Err(LazyViolation::MultisetMismatch)
        }
    }

    /// Reads logged so far.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Writes logged so far.
    pub fn writes(&self) -> u64 {
        self.writes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multiset_hash_is_order_independent() {
        let mut a = MultisetHash::new();
        let mut b = MultisetHash::new();
        a.add(b"x");
        a.add(b"y");
        a.add(b"z");
        b.add(b"z");
        b.add(b"x");
        b.add(b"y");
        assert_eq!(a, b);
    }

    #[test]
    fn multiset_hash_counts_multiplicity() {
        let mut a = MultisetHash::new();
        let mut b = MultisetHash::new();
        a.add(b"x");
        a.add(b"x");
        b.add(b"x");
        assert_ne!(a, b);
    }

    #[test]
    fn clean_history_verifies() {
        let mut v = LazyVerifier::new(64);
        v.write(0x000, vec![1; 64]);
        v.write(0x040, vec![2; 64]);
        assert_eq!(v.read(0x000).unwrap(), vec![1; 64]);
        v.write(0x000, vec![3; 64]);
        assert_eq!(v.read(0x040).unwrap(), vec![2; 64]);
        assert_eq!(v.read(0x000).unwrap(), vec![3; 64]);
        assert!(v.verify().is_ok());
        assert_eq!(v.reads(), 3);
        assert_eq!(v.writes(), 3);
    }

    #[test]
    fn substitution_fails_verification() {
        let mut v = LazyVerifier::new(64);
        v.write(0x100, vec![7; 64]);
        // Adversary swaps the value, keeping the timestamp.
        let ts = 1;
        v.tamper(0x100, vec![8; 64], ts);
        let _ = v.read(0x100);
        assert_eq!(v.verify(), Err(LazyViolation::MultisetMismatch));
    }

    #[test]
    fn replay_of_stale_value_fails_verification() {
        let mut v = LazyVerifier::new(64);
        v.write(0x200, vec![1; 64]); // ts 1
        v.write(0x200, vec![2; 64]); // ts 2
                                     // Adversary restores the old (value, timestamp) pair — the replay
                                     // attack plain MACs cannot see.
        v.tamper(0x200, vec![1; 64], 1);
        let got = v.read(0x200).unwrap();
        assert_eq!(got, vec![1; 64], "the processor is fooled *for now*");
        assert_eq!(v.verify(), Err(LazyViolation::MultisetMismatch));
    }

    #[test]
    fn future_timestamp_caught_immediately() {
        let mut v = LazyVerifier::new(64);
        v.write(0x300, vec![4; 64]);
        v.tamper(0x300, vec![4; 64], 999);
        assert_eq!(
            v.read(0x300),
            Err(LazyViolation::TimestampFromFuture { addr: 0x300 })
        );
    }

    #[test]
    fn untouched_lines_do_not_disturb_verification() {
        let mut v = LazyVerifier::new(64);
        v.write(0x000, vec![9; 64]);
        // Reading a never-written line is fine (zero default, ts 0).
        assert_eq!(v.read(0x4000).unwrap(), vec![0; 64]);
        assert!(v.verify().is_ok());
    }

    #[test]
    fn dropping_a_write_fails_verification() {
        let mut v = LazyVerifier::new(64);
        v.write(0x500, vec![1; 64]);
        // Adversary blocks the write from reaching DRAM: memory still has
        // the old (absent) content.
        v.memory.remove(&0x500);
        let _ = v.read(0x500);
        assert_eq!(v.verify(), Err(LazyViolation::MultisetMismatch));
    }
}
