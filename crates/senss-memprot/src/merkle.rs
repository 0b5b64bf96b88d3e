//! Merkle hash-tree memory integrity (CHash, §2.2 / §6.2).
//!
//! Two pieces live here:
//!
//! * [`TreeGeometry`] — pure address arithmetic: for a data line, the
//!   chain of hash-*line* addresses from its parent up to (but excluding)
//!   the on-chip root. Hash lines occupy a disjoint address region (above
//!   `1 << 47` by crate convention) so they flow through the ordinary L2 +
//!   bus machinery, polluting the cache exactly as the paper describes.
//! * [`MerkleTree`] — the functional tree: real SHA-256 hashes over
//!   64-byte lines with a sparse default representation, `update` on
//!   write-back and `verify` on fetch. Tampering any byte of any line (or
//!   replaying a stale line) makes `verify` fail — the replay-attack
//!   defence that per-block MACs lack.

use senss_crypto::sha256::{Digest, Sha256};
use std::collections::HashMap;

/// Base of the hash-line address region (shared convention with
/// `senss-sim`'s victim classification).
pub const HASH_REGION_BASE: u64 = 1 << 47;

/// Bytes per line (data and hash lines alike).
pub const LINE_BYTES: u64 = 64;

/// Fan-out of the tree: one 64-byte hash line holds four 16-byte child
/// digests.
pub const ARITY: u64 = 4;

/// Address arithmetic for the tree over a data region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeGeometry {
    data_span: u64,
    levels: u32,
    level_bases: Vec<u64>,
}

impl TreeGeometry {
    /// Creates the geometry for a data region `[0, data_span)`.
    ///
    /// # Panics
    ///
    /// Panics unless `data_span` is a power of two of at least two lines
    /// and below [`HASH_REGION_BASE`].
    pub fn new(data_span: u64) -> TreeGeometry {
        assert!(
            data_span.is_power_of_two() && data_span >= 2 * LINE_BYTES,
            "data span must be a power of two covering at least two lines"
        );
        assert!(
            data_span <= HASH_REGION_BASE,
            "data span overlaps hash region"
        );
        let mut level_bases = Vec::new();
        let mut nodes = data_span / LINE_BYTES; // lines at level 0 (data)
        let mut base = HASH_REGION_BASE;
        let mut levels = 0;
        while nodes > 1 {
            nodes = nodes.div_ceil(ARITY);
            level_bases.push(base);
            base += nodes * LINE_BYTES;
            levels += 1;
        }
        TreeGeometry {
            data_span,
            levels,
            level_bases,
        }
    }

    /// Covered data-region size in bytes.
    pub fn data_span(&self) -> u64 {
        self.data_span
    }

    /// Number of hash levels above the data (the last is the root line).
    pub fn levels(&self) -> u32 {
        self.levels
    }

    /// Whether `addr` is a hash-region address of this tree.
    pub fn is_hash_addr(&self, addr: u64) -> bool {
        addr >= HASH_REGION_BASE
    }

    /// The hash-line address of the level-`level` ancestor of data line
    /// `data_addr` (level 1 = parent).
    ///
    /// # Panics
    ///
    /// Panics if `level` is 0 or exceeds [`TreeGeometry::levels`], or the
    /// address lies outside the covered span.
    pub fn ancestor(&self, data_addr: u64, level: u32) -> u64 {
        assert!(level >= 1 && level <= self.levels, "level out of range");
        assert!(data_addr < self.data_span, "address outside covered span");
        let leaf = data_addr / LINE_BYTES;
        let idx = leaf / ARITY.pow(level);
        self.level_bases[(level - 1) as usize] + idx * LINE_BYTES
    }

    /// The full ancestor chain of a data line, nearest parent first,
    /// **excluding** the root line (the root digest lives on-chip and is
    /// never fetched). Addresses outside the covered span (e.g. the hash
    /// region itself) yield an empty chain.
    pub fn ancestors(&self, data_addr: u64) -> Vec<u64> {
        if data_addr >= self.data_span {
            return Vec::new();
        }
        (1..self.levels)
            .map(|l| self.ancestor(data_addr, l))
            .collect()
    }
}

/// The functional Merkle tree with sparse storage.
///
/// Untouched regions hash to per-level default digests (the hash of an
/// all-default child row), so the root is well defined without
/// materializing the whole tree.
#[derive(Debug, Clone)]
pub struct MerkleTree {
    geometry: TreeGeometry,
    /// Written data lines (level 0).
    data: HashMap<u64, Vec<u8>>,
    /// Materialized digests per (level, index).
    nodes: HashMap<(u32, u64), Digest>,
    /// Default digest of a level-`l` node over untouched children.
    defaults: Vec<Digest>,
}

fn leaf_digest(line: &[u8]) -> Digest {
    Sha256::digest(line)
}

fn combine(children: &[Digest; ARITY as usize]) -> Digest {
    let mut h = Sha256::new();
    for c in children {
        h.update(c);
    }
    h.finalize()
}

impl MerkleTree {
    /// Creates an empty (all-default) tree over `[0, data_span)`.
    pub fn new(data_span: u64) -> MerkleTree {
        let geometry = TreeGeometry::new(data_span);
        let mut defaults = Vec::with_capacity(geometry.levels() as usize + 1);
        defaults.push(leaf_digest(&vec![0u8; LINE_BYTES as usize]));
        for l in 1..=geometry.levels() {
            let child = defaults[(l - 1) as usize];
            defaults.push(combine(&[child, child, child, child]));
        }
        MerkleTree {
            geometry,
            data: HashMap::new(),
            nodes: HashMap::new(),
            defaults,
        }
    }

    /// The geometry in use.
    pub fn geometry(&self) -> &TreeGeometry {
        &self.geometry
    }

    fn digest_at(&self, level: u32, idx: u64) -> Digest {
        if level == 0 {
            return self
                .data
                .get(&(idx * LINE_BYTES))
                .map(|d| leaf_digest(d))
                .unwrap_or(self.defaults[0]);
        }
        self.nodes
            .get(&(level, idx))
            .copied()
            .unwrap_or(self.defaults[level as usize])
    }

    /// The current root digest (held in the processor in hardware).
    pub fn root(&self) -> Digest {
        self.digest_at(self.geometry.levels(), 0)
    }

    /// Records a write-back of `line` bytes at `addr` and updates the path
    /// to the root.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is unaligned, outside the span, or `line` is not
    /// exactly one line.
    pub fn update(&mut self, addr: u64, line: &[u8]) {
        assert_eq!(addr % LINE_BYTES, 0, "line-aligned address required");
        assert!(addr < self.geometry.data_span(), "address outside span");
        assert_eq!(line.len(), LINE_BYTES as usize, "exactly one line");
        self.data.insert(addr, line.to_vec());
        let mut idx = addr / LINE_BYTES;
        for level in 1..=self.geometry.levels() {
            idx /= ARITY;
            let base = idx * ARITY;
            let children = [
                self.digest_at(level - 1, base),
                self.digest_at(level - 1, base + 1),
                self.digest_at(level - 1, base + 2),
                self.digest_at(level - 1, base + 3),
            ];
            self.nodes.insert((level, idx), combine(&children));
        }
    }

    /// Verifies that `line` is the authentic current content of `addr` by
    /// recomputing the path and comparing against the stored tree (whose
    /// root stands in for the on-chip root register).
    pub fn verify(&self, addr: u64, line: &[u8]) -> bool {
        if !addr.is_multiple_of(LINE_BYTES)
            || addr >= self.geometry.data_span()
            || line.len() != LINE_BYTES as usize
        {
            return false;
        }
        let mut digest = leaf_digest(line);
        let mut idx = addr / LINE_BYTES;
        for level in 1..=self.geometry.levels() {
            let base = (idx / ARITY) * ARITY;
            let mut children = [
                self.digest_at(level - 1, base),
                self.digest_at(level - 1, base + 1),
                self.digest_at(level - 1, base + 2),
                self.digest_at(level - 1, base + 3),
            ];
            children[(idx % ARITY) as usize] = digest;
            digest = combine(&children);
            idx /= ARITY;
        }
        digest == self.root()
    }

    /// The stored content of a line (default zeros if never written).
    pub fn read(&self, addr: u64) -> Vec<u8> {
        self.data
            .get(&(addr / LINE_BYTES * LINE_BYTES))
            .cloned()
            .unwrap_or_else(|| vec![0u8; LINE_BYTES as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_levels() {
        // 16 lines -> levels: 4, 1 => 2 levels.
        let g = TreeGeometry::new(16 * LINE_BYTES);
        assert_eq!(g.levels(), 2);
        // 4GB of data lines: 2^26 leaves -> 13 levels.
        let g = TreeGeometry::new(1 << 32);
        assert_eq!(g.levels(), 13);
    }

    #[test]
    fn ancestors_are_shared_by_siblings() {
        let g = TreeGeometry::new(1 << 20);
        let a = g.ancestors(0);
        let b = g.ancestors(64); // sibling leaf
        assert_eq!(a, b, "siblings share their whole chain");
        let c = g.ancestors(64 * 4); // cousin: shares all but the parent
        assert_ne!(a[0], c[0]);
        assert_eq!(a[1..], c[1..]);
    }

    #[test]
    fn ancestors_exclude_root_and_are_in_hash_region() {
        let g = TreeGeometry::new(1 << 20);
        let chain = g.ancestors(0x4000);
        assert_eq!(chain.len() as u32, g.levels() - 1);
        for a in &chain {
            assert!(g.is_hash_addr(*a));
        }
    }

    #[test]
    fn hash_addresses_yield_empty_chain() {
        let g = TreeGeometry::new(1 << 20);
        assert!(g.ancestors(HASH_REGION_BASE + 64).is_empty());
    }

    #[test]
    fn distinct_levels_have_distinct_addresses() {
        let g = TreeGeometry::new(1 << 20);
        let chain = g.ancestors(0);
        let mut sorted = chain.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), chain.len());
    }

    #[test]
    fn fresh_tree_verifies_default_lines() {
        let t = MerkleTree::new(1 << 16);
        assert!(t.verify(0, &[0u8; 64]));
        assert!(t.verify(0x8000, &[0u8; 64]));
    }

    #[test]
    fn update_then_verify() {
        let mut t = MerkleTree::new(1 << 16);
        let line = vec![0xAB; 64];
        t.update(0x1000, &line);
        assert!(t.verify(0x1000, &line));
        assert_eq!(t.read(0x1000), line);
    }

    #[test]
    fn tampering_any_byte_is_detected() {
        let mut t = MerkleTree::new(1 << 16);
        let line = vec![0x11; 64];
        t.update(0x2000, &line);
        let mut tampered = line.clone();
        tampered[63] ^= 0x01;
        assert!(!t.verify(0x2000, &tampered));
    }

    #[test]
    fn replay_attack_is_detected() {
        // The attack CHash exists to stop: replaying an old (line, MAC)
        // pair. After an update, the *old* line no longer verifies.
        let mut t = MerkleTree::new(1 << 16);
        let old = vec![0x01; 64];
        let new = vec![0x02; 64];
        t.update(0x3000, &old);
        assert!(t.verify(0x3000, &old));
        t.update(0x3000, &new);
        assert!(!t.verify(0x3000, &old), "stale line must not verify");
        assert!(t.verify(0x3000, &new));
    }

    #[test]
    fn updates_elsewhere_do_not_break_verification() {
        let mut t = MerkleTree::new(1 << 16);
        let a = vec![0xAA; 64];
        let b = vec![0xBB; 64];
        t.update(0x0000, &a);
        t.update(0x8000, &b);
        assert!(t.verify(0x0000, &a));
        assert!(t.verify(0x8000, &b));
    }

    #[test]
    fn root_changes_with_every_update() {
        let mut t = MerkleTree::new(1 << 16);
        let r0 = t.root();
        t.update(0, &[1; 64]);
        let r1 = t.root();
        t.update(64, &[2; 64]);
        let r2 = t.root();
        assert_ne!(r0, r1);
        assert_ne!(r1, r2);
    }

    #[test]
    fn misaligned_or_out_of_range_verify_fails() {
        let t = MerkleTree::new(1 << 16);
        assert!(!t.verify(1, &[0; 64]));
        assert!(!t.verify(1 << 20, &[0; 64]));
        assert!(!t.verify(0, &[0; 63]));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_span_rejected() {
        TreeGeometry::new(100);
    }
}
