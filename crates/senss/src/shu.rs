//! The Security Hardware Unit (SHU) tables — §5, Figure 4.
//!
//! Each processor's SHU holds two structures:
//!
//! * the **group-processor bit matrix** — indexed by GID and PID, a set bit
//!   at `(g, p)` means processor `p` belongs to group `g`. A snooping SHU
//!   indexes it with the message tag in O(1) to decide whether to pick a
//!   message up. A row is all-zero on processors that are not themselves
//!   members of that group (a processor must not know another group's
//!   membership).
//! * the **group information table** — per GID: an *occupied* bit, the
//!   128-bit session key, the mask set, and the authentication-interval
//!   counter. GIDs are allocated from this table when a program is loaded
//!   and reclaimed at exit; an occupied GID is marked on **all** processors
//!   (members and non-members) so it cannot be concurrently reused.
//!
//! [`BitMatrix::storage_bits`] and [`GroupInfoTable::storage_bits`]
//! reproduce the paper's §7.1 hardware accounting (640 B matrix;
//! 1161 bits/entry ⇒ ≈148.6 KB table).

use crate::group::{GroupId, ProcessorId, MAX_GROUPS, MAX_PROCESSORS};
use senss_crypto::Block;

/// The group-processor bit matrix.
#[derive(Debug, Clone)]
pub struct BitMatrix {
    rows: Vec<u32>, // one u32 bit-row per group (MAX_PROCESSORS = 32)
}

impl Default for BitMatrix {
    fn default() -> BitMatrix {
        BitMatrix::new()
    }
}

impl BitMatrix {
    /// Creates an all-zero matrix.
    pub fn new() -> BitMatrix {
        BitMatrix {
            rows: vec![0; MAX_GROUPS],
        }
    }

    /// Sets membership of `pid` in `gid`.
    pub fn set(&mut self, gid: GroupId, pid: ProcessorId) {
        self.rows[gid.index()] |= 1 << pid.index();
    }

    /// Clears membership of `pid` in `gid`.
    pub fn clear(&mut self, gid: GroupId, pid: ProcessorId) {
        self.rows[gid.index()] &= !(1 << pid.index());
    }

    /// Clears a whole group row (group teardown).
    pub fn clear_group(&mut self, gid: GroupId) {
        self.rows[gid.index()] = 0;
    }

    /// O(1) membership test — the snoop-path lookup.
    pub fn contains(&self, gid: GroupId, pid: ProcessorId) -> bool {
        self.rows[gid.index()] & (1 << pid.index()) != 0
    }

    /// All member PIDs of a group.
    pub fn members(&self, gid: GroupId) -> Vec<ProcessorId> {
        let row = self.rows[gid.index()];
        (0..MAX_PROCESSORS as u8)
            .filter(|p| row & (1 << p) != 0)
            .map(ProcessorId::new)
            .collect()
    }

    /// The paper's storage accounting: 1024 entries × 5 bits = 640 bytes
    /// (§7.1 encodes the 32-processor membership compactly).
    pub fn storage_bits() -> usize {
        MAX_GROUPS * 5
    }
}

/// One entry of the group information table.
#[derive(Debug, Clone)]
pub struct GroupEntry {
    /// Allocation bit — set on **every** processor once the GID is taken.
    pub occupied: bool,
    /// The group's 128-bit session key (None on non-member processors,
    /// which hold the occupied bit but no secrets).
    pub session_key: Option<[u8; 16]>,
    /// The group's current mask values (members only).
    pub masks: Vec<Block>,
    /// Authentication-interval counter (bus transfers since last auth).
    pub ctr: u8,
}

/// The per-processor group information table.
#[derive(Debug, Clone)]
pub struct GroupInfoTable {
    entries: Vec<Option<GroupEntry>>,
    masks_per_group: usize,
}

impl GroupInfoTable {
    /// Creates a table sized for [`MAX_GROUPS`] with `masks_per_group`
    /// masks per entry (the paper stores 8).
    pub fn new(masks_per_group: usize) -> GroupInfoTable {
        GroupInfoTable {
            entries: (0..MAX_GROUPS).map(|_| None).collect(),
            masks_per_group,
        }
    }

    /// Finds a free GID and marks it occupied, returning it. This is the
    /// allocation step performed when the OS loads a program.
    pub fn allocate(&mut self) -> Option<GroupId> {
        let idx = self.entries.iter().position(|e| e.is_none())?;
        self.entries[idx] = Some(GroupEntry {
            occupied: true,
            session_key: None,
            masks: Vec::new(),
            ctr: 0,
        });
        Some(GroupId::new(idx as u16))
    }

    /// Marks a specific GID occupied (the broadcast that reserves the GID
    /// on non-member processors too).
    pub fn occupy(&mut self, gid: GroupId) -> bool {
        if self.entries[gid.index()].is_some() {
            return false;
        }
        self.entries[gid.index()] = Some(GroupEntry {
            occupied: true,
            session_key: None,
            masks: Vec::new(),
            ctr: 0,
        });
        true
    }

    /// Installs the decrypted session key and initial masks (members only).
    ///
    /// # Panics
    ///
    /// Panics if the GID has not been occupied first.
    pub fn install_secrets(&mut self, gid: GroupId, key: [u8; 16], masks: Vec<Block>) {
        let entry = self.entries[gid.index()]
            .as_mut()
            .expect("GID must be occupied before secrets install");
        entry.session_key = Some(key);
        entry.masks = masks;
    }

    /// Reads an entry.
    pub fn get(&self, gid: GroupId) -> Option<&GroupEntry> {
        self.entries[gid.index()].as_ref()
    }

    /// Mutable entry access.
    pub fn get_mut(&mut self, gid: GroupId) -> Option<&mut GroupEntry> {
        self.entries[gid.index()].as_mut()
    }

    /// Releases a GID at program exit.
    pub fn release(&mut self, gid: GroupId) {
        self.entries[gid.index()] = None;
    }

    /// Number of occupied entries.
    pub fn occupied_count(&self) -> usize {
        self.entries.iter().filter(|e| e.is_some()).count()
    }

    /// The paper's §7.1 accounting: per entry, 1 occupied bit, a 128-bit
    /// key, an 8-bit counter and `masks × 128` mask bits. With 8 masks:
    /// 1161 bits/entry, or about 148.6 KB for 1024 entries.
    pub fn storage_bits(&self) -> usize {
        MAX_GROUPS * (1 + 128 + 8 + self.masks_per_group * 128)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_set_clear_contains() {
        let mut m = BitMatrix::new();
        let g = GroupId::new(5);
        let p = ProcessorId::new(2);
        assert!(!m.contains(g, p));
        m.set(g, p);
        assert!(m.contains(g, p));
        m.clear(g, p);
        assert!(!m.contains(g, p));
    }

    #[test]
    fn matrix_members_enumerates() {
        let mut m = BitMatrix::new();
        let g = GroupId::new(1);
        for p in [0u8, 3, 31] {
            m.set(g, ProcessorId::new(p));
        }
        let members: Vec<u8> = m.members(g).iter().map(|p| p.value()).collect();
        assert_eq!(members, vec![0, 3, 31]);
        m.clear_group(g);
        assert!(m.members(g).is_empty());
    }

    #[test]
    fn matrix_storage_is_640_bytes() {
        // §7.1: "1024 entries × 5 bits per entry = 640 bytes".
        assert_eq!(BitMatrix::storage_bits() / 8, 640);
    }

    #[test]
    fn table_allocation_cycle() {
        let mut t = GroupInfoTable::new(8);
        let g1 = t.allocate().unwrap();
        let g2 = t.allocate().unwrap();
        assert_ne!(g1, g2);
        assert_eq!(t.occupied_count(), 2);
        t.release(g1);
        assert_eq!(t.occupied_count(), 1);
        // The freed GID is reusable.
        let g3 = t.allocate().unwrap();
        assert_eq!(g3, g1);
    }

    #[test]
    fn occupy_prevents_double_use() {
        let mut t = GroupInfoTable::new(8);
        let g = GroupId::new(7);
        assert!(t.occupy(g));
        assert!(!t.occupy(g), "GID reuse must be refused");
    }

    #[test]
    fn secrets_only_after_occupation() {
        let mut t = GroupInfoTable::new(8);
        let g = t.allocate().unwrap();
        t.install_secrets(g, [9; 16], vec![Block::ZERO; 8]);
        let e = t.get(g).unwrap();
        assert_eq!(e.session_key, Some([9; 16]));
        assert_eq!(e.masks.len(), 8);
    }

    #[test]
    #[should_panic(expected = "occupied")]
    fn secrets_without_occupation_panic() {
        let mut t = GroupInfoTable::new(8);
        t.install_secrets(GroupId::new(3), [0; 16], vec![]);
    }

    #[test]
    fn table_storage_matches_paper() {
        // §7.1: 1161 bits per entry, 1024 entries ≈ 148.6 KB.
        let t = GroupInfoTable::new(8);
        assert_eq!(t.storage_bits() / MAX_GROUPS, 1161);
        let kb = t.storage_bits() as f64 / 8.0 / 1024.0;
        assert!(
            (kb - 145.1).abs() < 1.0,
            "≈145 KiB (paper rounds to 148.6 KB decimal): {kb}"
        );
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut t = GroupInfoTable::new(1);
        for _ in 0..MAX_GROUPS {
            assert!(t.allocate().is_some());
        }
        assert!(t.allocate().is_none());
    }
}
