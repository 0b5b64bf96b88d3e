//! The chained CBC-MAC of the paper's Equation (1).
//!
//! ```text
//! MAC_n = AES_K( … AES_K( AES_K( IV ⊕ D1 ) ⊕ D2 ) … ⊕ Dn )
//! ```
//!
//! `MAC_n` reflects the *entire history* of bus transfers up to transfer `n`
//! — the property that lets SENSS authenticate broadcast behaviour: every
//! group member folds every message (data block + originating PID) into its
//! own running MAC, and a periodic authentication transaction compares them.
//! A disagreement anywhere in the history propagates to every later MAC, so
//! lengthening the authentication interval never loses coverage (§4.3).
//!
//! The module also provides [`UnchainedMac`], the non-chained per-message
//! baseline (à la Shi et al. \[20\]) that the paper argues is insufficient:
//! it authenticates each message in isolation and therefore misses the
//! Type 1 (dropping) and Type 3 (spoof-to-subset) attacks demonstrated in
//! the `senss-attacks` crate.

use crate::aes::Aes;
use crate::block::Block;

/// A running chained CBC-MAC over a sequence of blocks.
///
/// # Example
///
/// ```
/// use senss_crypto::aes::Aes;
/// use senss_crypto::mac::ChainedMac;
/// use senss_crypto::Block;
///
/// let iv = Block::from([5u8; 16]);
/// let mut a = ChainedMac::new(Aes::new_128(&[1u8; 16]), iv);
/// let mut b = ChainedMac::new(Aes::new_128(&[1u8; 16]), iv);
/// a.absorb(Block::from([7u8; 16]));
/// b.absorb(Block::from([7u8; 16]));
/// assert_eq!(a.tag(128), b.tag(128));
/// ```
#[derive(Debug, Clone)]
pub struct ChainedMac {
    aes: Aes,
    state: Block,
    absorbed: u64,
}

impl ChainedMac {
    /// Creates a MAC chain. Per §4.3, `iv` **must differ** from the
    /// encryption chain's initial vector `C0`, otherwise the MACs equal the
    /// masks and misordering (Type 2) attacks self-heal undetected.
    pub fn new(aes: Aes, iv: Block) -> ChainedMac {
        ChainedMac {
            aes,
            state: iv,
            absorbed: 0,
        }
    }

    /// Folds one block into the chain: `state = AES(state ⊕ block)`.
    pub fn absorb(&mut self, block: Block) {
        self.state = self.aes.encrypt_block(self.state ^ block);
        self.absorbed += 1;
    }

    /// Folds a bus message into the chain exactly as the SHU does: the data
    /// block together with its originating processor id, so that spoofed
    /// PIDs (Type 3) desynchronize the chains.
    pub fn absorb_tagged(&mut self, data: Block, pid: u32) {
        self.absorb(data ^ Block::from_words(pid as u64, 0));
    }

    /// The current MAC, truncated to its `m`-bit prefix per Equation (1).
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero or greater than 128.
    pub fn tag(&self, m: usize) -> Block {
        self.state.prefix_bits(m)
    }

    /// Number of blocks folded in so far.
    pub fn absorbed(&self) -> u64 {
        self.absorbed
    }

    /// Snapshots the chain state for an encrypted context swap-out
    /// (§4.2: "the contexts are encrypted before being written out").
    /// The state is secret — callers must encrypt it before it leaves
    /// the chip.
    pub fn snapshot(&self) -> (Block, u64) {
        (self.state, self.absorbed)
    }

    /// Restores a chain from a snapshot taken by
    /// [`ChainedMac::snapshot`].
    pub fn resume(aes: Aes, state: Block, absorbed: u64) -> ChainedMac {
        ChainedMac {
            aes,
            state,
            absorbed,
        }
    }
}

/// The non-chained per-message MAC baseline.
///
/// Each message is authenticated independently as `AES(IV ⊕ D)` — there is
/// no history, so a dropped or replayed message whose own tag is valid goes
/// unnoticed by receivers that never saw it.
#[derive(Debug, Clone)]
pub struct UnchainedMac {
    aes: Aes,
    iv: Block,
}

impl UnchainedMac {
    /// Creates the baseline MAC.
    pub fn new(aes: Aes, iv: Block) -> UnchainedMac {
        UnchainedMac { aes, iv }
    }

    /// Tag for a single message (independent of any other message).
    pub fn tag(&self, data: Block, m: usize) -> Block {
        self.aes.encrypt_block(self.iv ^ data).prefix_bits(m)
    }

    /// Verifies a single message/tag pair (constant-time compare).
    pub fn verify(&self, data: Block, tag: Block, m: usize) -> bool {
        self.tag(data, m).ct_eq(&tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn aes() -> Aes {
        Aes::new_128(&[0x10; 16])
    }

    #[test]
    fn identical_histories_identical_tags() {
        let iv = Block::from([9; 16]);
        let mut a = ChainedMac::new(aes(), iv);
        let mut b = ChainedMac::new(aes(), iv);
        for i in 0..100u8 {
            let d = Block::from([i; 16]);
            a.absorb_tagged(d, u32::from(i % 4));
            b.absorb_tagged(d, u32::from(i % 4));
        }
        assert_eq!(a.tag(128), b.tag(128));
        assert_eq!(a.absorbed(), 100);
    }

    #[test]
    fn divergence_propagates_forever() {
        // §4.3: once histories differ, every later MAC differs — the basis
        // for interval authentication losing nothing.
        let iv = Block::from([9; 16]);
        let mut a = ChainedMac::new(aes(), iv);
        let mut b = ChainedMac::new(aes(), iv);
        a.absorb(Block::from([1; 16]));
        b.absorb(Block::from([2; 16])); // tampered message
        for i in 0..50u8 {
            // identical traffic afterwards
            let d = Block::from([i.wrapping_add(3); 16]);
            a.absorb(d);
            b.absorb(d);
            assert_ne!(a.tag(128), b.tag(128), "chains re-converged at {i}");
        }
    }

    #[test]
    fn swap_attack_detected_by_chained_mac() {
        // Type 2: swapping the first two transfers must leave the chains
        // permanently inconsistent.
        let iv = Block::from([7; 16]);
        let mut sender = ChainedMac::new(aes(), iv);
        let mut receiver = ChainedMac::new(aes(), iv);
        let d1 = Block::from([0xA1; 16]);
        let d2 = Block::from([0xB2; 16]);
        sender.absorb(d1);
        sender.absorb(d2);
        receiver.absorb(d2); // adversary swapped them
        receiver.absorb(d1);
        assert_ne!(sender.tag(128), receiver.tag(128));
    }

    #[test]
    fn pid_is_part_of_the_history() {
        // Type 3: same data claimed by a different originator must change
        // the MAC.
        let iv = Block::from([7; 16]);
        let mut a = ChainedMac::new(aes(), iv);
        let mut b = ChainedMac::new(aes(), iv);
        let d = Block::from([0x33; 16]);
        a.absorb_tagged(d, 0);
        b.absorb_tagged(d, 1);
        assert_ne!(a.tag(128), b.tag(128));
    }

    #[test]
    fn truncated_tags_agree_on_prefix() {
        let iv = Block::from([4; 16]);
        let mut m = ChainedMac::new(aes(), iv);
        m.absorb(Block::from([0x66; 16]));
        let full = m.tag(128);
        let half = m.tag(64);
        assert_eq!(half, full.prefix_bits(64));
    }

    #[test]
    fn unchained_baseline_verifies_individual_messages() {
        let mac = UnchainedMac::new(aes(), Block::from([2; 16]));
        let d = Block::from([0x55; 16]);
        let t = mac.tag(d, 128);
        assert!(mac.verify(d, t, 128));
        assert!(!mac.verify(Block::from([0x56; 16]), t, 128));
    }

    #[test]
    fn unchained_baseline_blind_to_replay() {
        // The weakness SENSS fixes: a replayed (message, tag) pair verifies.
        let mac = UnchainedMac::new(aes(), Block::from([2; 16]));
        let d = Block::from([0x55; 16]);
        let t = mac.tag(d, 128);
        // "Replay" the same pair later — still verifies; nothing ties it to
        // the transfer history.
        assert!(mac.verify(d, t, 128));
    }

    #[test]
    fn different_iv_gives_independent_chain() {
        // Encryption and authentication must use different IVs (§4.3).
        let mut enc_like = ChainedMac::new(aes(), Block::from([1; 16]));
        let mut auth_like = ChainedMac::new(aes(), Block::from([2; 16]));
        let d = Block::from([0x42; 16]);
        enc_like.absorb(d);
        auth_like.absorb(d);
        assert_ne!(enc_like.tag(128), auth_like.tag(128));
    }
}
