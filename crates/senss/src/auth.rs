//! Bus authentication: the chained CBC-MAC over transfer history (§4.3).
//!
//! Every group member folds each cache-to-cache message — the data block
//! *and its originating PID* — into a running CBC-MAC seeded with an IV
//! distinct from the encryption chain's. A per-group counter ticks on
//! every transfer; when it reaches the configured interval, the initiating
//! processor (round-robin across the group) puts its MAC on the bus and
//! all members compare. Interval 1 authenticates every transfer; larger
//! intervals trade detection *latency* (never coverage — the chain never
//! forgets) for bus bandwidth.
//!
//! [`BaselineAuth`] is the non-chained per-message scheme (Shi et al.)
//! used as the paper's §8 comparison: it verifies each message in
//! isolation and so cannot see message dropping or spoof-to-subset.

use crate::group::ProcessorId;
use senss_crypto::aes::Aes;
use senss_crypto::mac::{ChainedMac, UnchainedMac};
use senss_crypto::Block;

/// Outcome of a group authentication round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuthOutcome {
    /// All members agreed on the MAC.
    Consistent,
    /// Disagreement — the global alarm: which members differed from the
    /// initiator.
    AlarmRaised {
        /// The round-robin initiator whose MAC went on the bus.
        initiator: ProcessorId,
        /// Members whose local MAC differed.
        dissenting: Vec<ProcessorId>,
    },
}

/// One processor's authentication engine for one group.
#[derive(Debug, Clone)]
pub struct AuthEngine {
    mac: ChainedMac,
    transfers_seen: u64,
}

impl AuthEngine {
    /// Creates an engine with the group's session cipher and the
    /// authentication IV (must differ from the encryption IV, §4.3).
    pub fn new(aes: Aes, auth_iv: Block) -> AuthEngine {
        AuthEngine {
            mac: ChainedMac::new(aes, auth_iv),
            transfers_seen: 0,
        }
    }

    /// Folds a snooped transfer into the history.
    pub fn observe(&mut self, data: Block, pid: ProcessorId) {
        self.mac.absorb_tagged(data, u32::from(pid.value()));
        self.transfers_seen += 1;
    }

    /// Folds a multi-block payload (one absorb per block — each bus beat
    /// is a MAC block).
    pub fn observe_payload(&mut self, payload: &[Block], pid: ProcessorId) {
        for &b in payload {
            self.observe(b, pid);
        }
    }

    /// The current MAC truncated to `m` bits.
    pub fn mac(&self, m: usize) -> Block {
        self.mac.tag(m)
    }

    /// Transfers folded so far.
    pub fn transfers_seen(&self) -> u64 {
        self.transfers_seen
    }

    /// Snapshots the underlying MAC chain for an encrypted context
    /// swap-out (§4.2). Secret material — encrypt before writing out.
    pub fn mac_snapshot(&self) -> (Block, u64) {
        self.mac.snapshot()
    }

    /// Rebuilds an engine from a resumed MAC chain.
    pub fn from_mac_snapshot(mac: ChainedMac, transfers_seen: u64) -> AuthEngine {
        AuthEngine {
            mac,
            transfers_seen,
        }
    }
}

/// Group-wide authentication coordinator: tracks the interval counter and
/// the round-robin initiator.
#[derive(Debug, Clone)]
pub struct AuthSchedule {
    interval: u64,
    since_last: u64,
    rounds: u64,
    members: Vec<ProcessorId>,
}

impl AuthSchedule {
    /// Creates a schedule authenticating every `interval` transfers across
    /// the given members.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero or `members` is empty.
    pub fn new(interval: u64, members: Vec<ProcessorId>) -> AuthSchedule {
        assert!(interval > 0, "authentication interval must be positive");
        assert!(!members.is_empty(), "a group needs members");
        AuthSchedule {
            interval,
            since_last: 0,
            rounds: 0,
            members,
        }
    }

    /// The configured interval.
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// Ticks the counter for one observed transfer; returns the initiator
    /// if an authentication round is now due.
    pub fn tick(&mut self) -> Option<ProcessorId> {
        self.since_last += 1;
        if self.since_last >= self.interval {
            self.since_last = 0;
            let initiator = self.members[(self.rounds as usize) % self.members.len()];
            self.rounds += 1;
            Some(initiator)
        } else {
            None
        }
    }

    /// Completed rounds.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }
}

/// Runs one authentication round over all members' engines: the initiator
/// broadcasts its MAC and everyone compares (`m`-bit tags).
pub fn authenticate_round(
    engines: &[(ProcessorId, &AuthEngine)],
    initiator: ProcessorId,
    m: usize,
) -> AuthOutcome {
    let initiator_mac = engines
        .iter()
        .find(|(p, _)| *p == initiator)
        .map(|(_, e)| e.mac(m))
        .expect("initiator must be a member");
    let dissenting: Vec<ProcessorId> = engines
        .iter()
        .filter(|(_, e)| e.mac(m) != initiator_mac)
        .map(|(p, _)| *p)
        .collect();
    if dissenting.is_empty() {
        AuthOutcome::Consistent
    } else {
        AuthOutcome::AlarmRaised {
            initiator,
            dissenting,
        }
    }
}

/// The non-chained per-message baseline (Shi et al. \[20\]).
#[derive(Debug, Clone)]
pub struct BaselineAuth {
    mac: UnchainedMac,
    m: usize,
}

impl BaselineAuth {
    /// Creates the baseline with an `m`-bit tag.
    pub fn new(aes: Aes, iv: Block, m: usize) -> BaselineAuth {
        BaselineAuth {
            mac: UnchainedMac::new(aes, iv),
            m,
        }
    }

    /// Tags one message.
    pub fn tag(&self, data: Block) -> Block {
        self.mac.tag(data, self.m)
    }

    /// Verifies one message in isolation — valid replays and messages the
    /// verifier never saw dropped are invisible to this check.
    pub fn verify(&self, data: Block, tag: Block) -> bool {
        self.mac.verify(data, tag, self.m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn aes() -> Aes {
        Aes::new_128(&[0x3c; 16])
    }

    fn iv() -> Block {
        Block::from([0x99; 16])
    }

    fn pids(n: u8) -> Vec<ProcessorId> {
        (0..n).map(ProcessorId::new).collect()
    }

    #[test]
    fn consistent_group_authenticates() {
        let mut engines: Vec<AuthEngine> = (0..4).map(|_| AuthEngine::new(aes(), iv())).collect();
        for i in 0..50u8 {
            let d = Block::from([i; 16]);
            let pid = ProcessorId::new(i % 4);
            for e in engines.iter_mut() {
                e.observe(d, pid);
            }
        }
        let refs: Vec<(ProcessorId, &AuthEngine)> =
            pids(4).into_iter().zip(engines.iter()).collect();
        assert_eq!(
            authenticate_round(&refs, ProcessorId::new(0), 64),
            AuthOutcome::Consistent
        );
    }

    #[test]
    fn divergent_member_raises_alarm() {
        let mut engines: Vec<AuthEngine> = (0..3).map(|_| AuthEngine::new(aes(), iv())).collect();
        let d = Block::from([0x42; 16]);
        engines[0].observe(d, ProcessorId::new(0));
        engines[1].observe(d, ProcessorId::new(0));
        // Member 2 saw a *different* block (tampered in flight).
        engines[2].observe(Block::from([0x43; 16]), ProcessorId::new(0));
        let refs: Vec<(ProcessorId, &AuthEngine)> =
            pids(3).into_iter().zip(engines.iter()).collect();
        match authenticate_round(&refs, ProcessorId::new(0), 128) {
            AuthOutcome::AlarmRaised { dissenting, .. } => {
                assert_eq!(dissenting, vec![ProcessorId::new(2)]);
            }
            other => panic!("expected alarm, got {other:?}"),
        }
    }

    #[test]
    fn schedule_fires_every_interval() {
        let mut s = AuthSchedule::new(3, pids(2));
        assert_eq!(s.tick(), None);
        assert_eq!(s.tick(), None);
        assert_eq!(s.tick(), Some(ProcessorId::new(0)));
        assert_eq!(s.tick(), None);
        assert_eq!(s.tick(), None);
        // Round-robin initiator.
        assert_eq!(s.tick(), Some(ProcessorId::new(1)));
        assert_eq!(s.rounds(), 2);
    }

    #[test]
    fn interval_one_fires_every_transfer() {
        let mut s = AuthSchedule::new(1, pids(4));
        let initiators: Vec<u8> = (0..8).map(|_| s.tick().unwrap().value()).collect();
        assert_eq!(initiators, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn interval_never_loses_coverage() {
        // A tamper inside an interval is still caught at the interval end:
        // the chain remembers everything since the last round.
        let mut good = AuthEngine::new(aes(), iv());
        let mut bad = AuthEngine::new(aes(), iv());
        for i in 0..99u8 {
            let d = Block::from([i; 16]);
            good.observe(d, ProcessorId::new(0));
            // One corrupted message at position 7, clean elsewhere.
            let seen = if i == 7 { Block::from([0xFF; 16]) } else { d };
            bad.observe(seen, ProcessorId::new(0));
        }
        assert_ne!(good.mac(64), bad.mac(64));
    }

    #[test]
    fn payload_observation_counts_blocks() {
        let mut e = AuthEngine::new(aes(), iv());
        let payload: Vec<Block> = (0..4u8).map(|i| Block::from([i; 16])).collect();
        e.observe_payload(&payload, ProcessorId::new(1));
        assert_eq!(e.transfers_seen(), 4);
    }

    #[test]
    fn baseline_verifies_but_forgets() {
        let b = BaselineAuth::new(aes(), iv(), 64);
        let d = Block::from([0x10; 16]);
        let t = b.tag(d);
        assert!(b.verify(d, t));
        // Replay of the identical (message, tag) pair still verifies —
        // the weakness the chained scheme closes.
        assert!(b.verify(d, t));
        assert!(!b.verify(Block::from([0x11; 16]), t));
    }

    #[test]
    #[should_panic(expected = "interval")]
    fn zero_interval_rejected() {
        AuthSchedule::new(0, pids(1));
    }

    #[test]
    #[should_panic(expected = "members")]
    fn empty_group_rejected() {
        AuthSchedule::new(1, vec![]);
    }
}
