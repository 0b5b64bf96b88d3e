//! The functional secure-bus fabric: real ciphertext, real MACs, real
//! alarms.
//!
//! [`GroupFabric`] instantiates one SHU state (mask chain + authentication
//! engine) per group member and moves actual [`Block`] payloads between
//! them, exactly as the snooping bus would. It is the object the
//! `senss-attacks` crate attacks: an adversary may withhold deliveries
//! (Type 1), reorder messages (Type 2), or inject spoofed ones (Type 3),
//! and the fabric's authentication rounds raise the paper's "global alarm"
//! when the chains disagree.
//!
//! The fabric is *functional* — cycle timing lives in
//! [`crate::secure_bus::SenssExtension`]; the two are exercised together
//! in the integration tests.

use crate::auth::{authenticate_round, AuthEngine, AuthOutcome, AuthSchedule};
use crate::busenc::MaskChain;
use crate::group::{GroupId, MessageTag, ProcessorId};
use senss_crypto::aes::Aes;
use senss_crypto::gcm::Gcm;
use senss_crypto::mac::ChainedMac;
use senss_crypto::{Block, CryptoError};

/// A ciphertext message on the snooping bus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BusMessage {
    /// GID/PID tag attached by the sending SHU.
    pub tag: MessageTag,
    /// Encrypted payload blocks (`P` values).
    pub payload: Vec<Block>,
}

/// Why a processor raised the global alarm.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AlarmReason {
    /// A message carrying this processor's own PID appeared on the bus
    /// that it did not send (immediate Type 3 detection, §4.3).
    OwnPidSpoofed,
    /// An authentication round found divergent MACs.
    AuthMismatch {
        /// Members whose MAC differed from the initiator's.
        dissenting: Vec<ProcessorId>,
    },
}

/// A raised alarm.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alarm {
    /// The processor that raised it.
    pub pid: ProcessorId,
    /// Why.
    pub reason: AlarmReason,
}

/// One group's worth of synchronized SHU state across all members.
#[derive(Debug)]
pub struct GroupFabric {
    gid: GroupId,
    members: Vec<ProcessorId>,
    session_key: [u8; 16],
    chains: Vec<MaskChain>,
    auths: Vec<AuthEngine>,
    schedule: AuthSchedule,
    mac_bits: usize,
    alarms: Vec<Alarm>,
    halted: bool,
}

/// An encrypted, authenticated swap-out of a group's SHU context (§4.2:
/// "When an existing group is swapped out, all processes on all
/// processors are stopped and the contexts are encrypted before being
/// written out to the memory").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuspendedGroup {
    /// The group this context belongs to.
    pub gid: GroupId,
    /// GCM-sealed serialized context (untrusted memory may hold this).
    ciphertext: Vec<u8>,
    tag: Block,
    nonce: [u8; 12],
}

impl GroupFabric {
    /// Creates the fabric for `members` of group `gid`, keyed with the
    /// session key, with `num_masks` encryption masks, an authentication
    /// round every `auth_interval` messages, and `mac_bits`-bit MACs.
    /// `c0` and `auth_iv` are the two (distinct!) initial vectors
    /// broadcast at initialization.
    ///
    /// # Panics
    ///
    /// Panics if the IVs are equal (§4.3 requires distinct IVs — reusing
    /// the encryption IV lets misordering self-heal) or `members` is
    /// empty.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        gid: GroupId,
        members: Vec<ProcessorId>,
        session_key: &[u8; 16],
        c0: Block,
        auth_iv: Block,
        num_masks: usize,
        auth_interval: u64,
        mac_bits: usize,
    ) -> GroupFabric {
        assert_ne!(
            c0, auth_iv,
            "encryption and authentication IVs must differ (§4.3)"
        );
        assert!(!members.is_empty(), "a group needs members");
        let aes = Aes::new_128(session_key);
        let chains = members
            .iter()
            .map(|_| MaskChain::new(aes.clone(), c0, num_masks))
            .collect();
        let auths = members
            .iter()
            .map(|_| AuthEngine::new(aes.clone(), auth_iv))
            .collect();
        let schedule = AuthSchedule::new(auth_interval, members.clone());
        GroupFabric {
            gid,
            members,
            session_key: *session_key,
            chains,
            auths,
            schedule,
            mac_bits,
            alarms: Vec::new(),
            halted: false,
        }
    }

    /// The group id.
    pub fn gid(&self) -> GroupId {
        self.gid
    }

    /// Group members.
    pub fn members(&self) -> &[ProcessorId] {
        &self.members
    }

    /// Whether an alarm has halted the group.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Alarms raised so far.
    pub fn alarms(&self) -> &[Alarm] {
        &self.alarms
    }

    fn member_index(&self, pid: ProcessorId) -> usize {
        self.members
            .iter()
            .position(|&p| p == pid)
            .expect("pid must be a group member")
    }

    /// Sender-side SHU: encrypts `data` and emits the bus message. The
    /// sender's chain advances and its auth engine absorbs the plaintext.
    ///
    /// # Panics
    ///
    /// Panics if `sender` is not a member.
    pub fn send(&mut self, sender: ProcessorId, data: &[Block]) -> BusMessage {
        let idx = self.member_index(sender);
        let payload = self.chains[idx].encrypt_payload(data, u32::from(sender.value()));
        self.auths[idx].observe_payload(data, sender);
        BusMessage {
            tag: MessageTag {
                gid: self.gid,
                pid: sender,
            },
            payload,
        }
    }

    /// Receiver-side SHU: decrypts a snooped message at member `to`,
    /// advancing its chain and absorbing into its auth engine. Returns the
    /// recovered plaintext, or `None` when the receiver refuses the message
    /// (own-PID spoof detection — an immediate alarm).
    ///
    /// # Panics
    ///
    /// Panics if `to` is not a member.
    pub fn deliver(&mut self, msg: &BusMessage, to: ProcessorId) -> Option<Vec<Block>> {
        let idx = self.member_index(to);
        if msg.tag.pid == to {
            // "P should not receive its own message from the bus."
            self.raise(to, AlarmReason::OwnPidSpoofed);
            return None;
        }
        let data = self.chains[idx].decrypt_payload(&msg.payload, u32::from(msg.tag.pid.value()));
        self.auths[idx].observe_payload(&data, msg.tag.pid);
        Some(data)
    }

    /// The common un-attacked path: send from `sender` and deliver to every
    /// other member; then tick the authentication schedule, running a round
    /// if due. Returns each receiver's recovered plaintext.
    pub fn broadcast(
        &mut self,
        sender: ProcessorId,
        data: &[Block],
    ) -> Vec<(ProcessorId, Vec<Block>)> {
        let msg = self.send(sender, data);
        let receivers: Vec<ProcessorId> = self
            .members
            .iter()
            .copied()
            .filter(|&p| p != sender)
            .collect();
        let mut out = Vec::with_capacity(receivers.len());
        for r in receivers {
            if let Some(d) = self.deliver(&msg, r) {
                out.push((r, d));
            }
        }
        if let Some(initiator) = self.schedule.tick() {
            self.run_auth_round(initiator);
        }
        out
    }

    /// Ticks the authentication schedule for one externally-managed
    /// message (used by attack scenarios that drive send/deliver manually).
    /// Runs a round if due and returns its outcome.
    pub fn tick_auth(&mut self) -> Option<AuthOutcome> {
        self.schedule.tick().map(|init| self.run_auth_round(init))
    }

    /// Forces an authentication round now with the given initiator.
    pub fn run_auth_round(&mut self, initiator: ProcessorId) -> AuthOutcome {
        let engines: Vec<(ProcessorId, &AuthEngine)> = self
            .members
            .iter()
            .copied()
            .zip(self.auths.iter())
            .collect();
        let outcome = authenticate_round(&engines, initiator, self.mac_bits);
        if let AuthOutcome::AlarmRaised { ref dissenting, .. } = outcome {
            let d = dissenting.clone();
            self.raise(initiator, AlarmReason::AuthMismatch { dissenting: d });
        }
        outcome
    }

    fn raise(&mut self, pid: ProcessorId, reason: AlarmReason) {
        self.alarms.push(Alarm { pid, reason });
        self.halted = true;
    }

    /// Swaps the group out: serializes every member's mask chain and MAC
    /// state, seals it with AES-GCM under the session key, and consumes
    /// the fabric. The returned blob is safe to store in untrusted
    /// memory.
    pub fn suspend(self) -> SuspendedGroup {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(self.members.len() as u64).to_le_bytes());
        buf.extend_from_slice(&(self.mac_bits as u64).to_le_bytes());
        buf.extend_from_slice(&self.schedule.interval().to_le_bytes());
        for pid in &self.members {
            buf.push(pid.value());
        }
        for chain in &self.chains {
            let (masks, seq) = chain.snapshot();
            buf.extend_from_slice(&(masks.len() as u64).to_le_bytes());
            buf.extend_from_slice(&seq.to_le_bytes());
            for m in masks {
                buf.extend_from_slice(m.as_bytes());
            }
        }
        for auth in &self.auths {
            let (state, absorbed) = auth.mac_snapshot();
            buf.extend_from_slice(state.as_bytes());
            buf.extend_from_slice(&absorbed.to_le_bytes());
        }
        let mut nonce = [0u8; 12];
        nonce[..2].copy_from_slice(&self.gid.value().to_le_bytes());
        nonce[4..].copy_from_slice(&self.chains[0].seq().to_le_bytes());
        let gcm = Gcm::new(Aes::new_128(&self.session_key));
        let (ciphertext, tag) = gcm.encrypt(&nonce, b"senss-context", &buf);
        SuspendedGroup {
            gid: self.gid,
            ciphertext,
            tag,
            nonce,
        }
    }

    /// Resumes a swapped-out group. Fails if the stored context was
    /// tampered with in memory.
    ///
    /// # Errors
    ///
    /// [`CryptoError::TagMismatch`] on a corrupted context;
    /// [`CryptoError::BadLength`] on truncation.
    pub fn resume(
        suspended: &SuspendedGroup,
        session_key: &[u8; 16],
    ) -> Result<GroupFabric, CryptoError> {
        let gcm = Gcm::new(Aes::new_128(session_key));
        let buf = gcm.decrypt(
            &suspended.nonce,
            b"senss-context",
            &suspended.ciphertext,
            suspended.tag,
        )?;
        let mut pos = 0usize;
        let mut take = |n: usize| -> Result<&[u8], CryptoError> {
            if pos + n > buf.len() {
                return Err(CryptoError::BadLength { len: buf.len() });
            }
            let s = &buf[pos..pos + n];
            pos += n;
            Ok(s)
        };
        let read_u64 = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("8 bytes"));
        let n_members = read_u64(take(8)?) as usize;
        let mac_bits = read_u64(take(8)?) as usize;
        let interval = read_u64(take(8)?);
        let mut members = Vec::with_capacity(n_members);
        for _ in 0..n_members {
            members.push(ProcessorId::new(take(1)?[0]));
        }
        let aes = Aes::new_128(session_key);
        let mut chains = Vec::with_capacity(n_members);
        for _ in 0..n_members {
            let n_masks = read_u64(take(8)?) as usize;
            let seq = read_u64(take(8)?);
            let mut masks = Vec::with_capacity(n_masks);
            for _ in 0..n_masks {
                masks.push(Block::from_slice(take(16)?));
            }
            chains.push(MaskChain::resume(aes.clone(), masks, seq));
        }
        let mut auths = Vec::with_capacity(n_members);
        for _ in 0..n_members {
            let state = Block::from_slice(take(16)?);
            let absorbed = read_u64(take(8)?);
            auths.push(AuthEngine::from_mac_snapshot(
                ChainedMac::resume(aes.clone(), state, absorbed),
                absorbed,
            ));
        }
        let schedule = AuthSchedule::new(interval, members.clone());
        Ok(GroupFabric {
            gid: suspended.gid,
            members,
            session_key: *session_key,
            chains,
            auths,
            schedule,
            mac_bits,
            alarms: Vec::new(),
            halted: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fabric(n: u8, interval: u64) -> GroupFabric {
        GroupFabric::new(
            GroupId::new(1),
            (0..n).map(ProcessorId::new).collect(),
            &[0x44; 16],
            Block::from([1; 16]),
            Block::from([2; 16]),
            2,
            interval,
            64,
        )
    }

    fn line(tag: u8) -> Vec<Block> {
        (0..4u8)
            .map(|i| Block::from([tag.wrapping_add(i); 16]))
            .collect()
    }

    #[test]
    fn clean_broadcasts_stay_consistent() {
        let mut f = fabric(4, 10);
        for i in 0..100u8 {
            let sender = ProcessorId::new(i % 4);
            let data = line(i);
            let got = f.broadcast(sender, &data);
            assert_eq!(got.len(), 3);
            for (_, d) in got {
                assert_eq!(d, data, "message {i}");
            }
        }
        assert!(!f.is_halted());
        assert!(f.alarms().is_empty());
    }

    #[test]
    fn wire_payload_is_not_plaintext() {
        let mut f = fabric(2, 100);
        let data = line(9);
        let msg = f.send(ProcessorId::new(0), &data);
        assert_ne!(msg.payload, data);
    }

    #[test]
    fn own_pid_spoof_detected_immediately() {
        let mut f = fabric(3, 100);
        // Forge a message claiming to come from P1 and show it to P1.
        let forged = BusMessage {
            tag: MessageTag {
                gid: GroupId::new(1),
                pid: ProcessorId::new(1),
            },
            payload: line(0),
        };
        assert!(f.deliver(&forged, ProcessorId::new(1)).is_none());
        assert!(f.is_halted());
        assert_eq!(f.alarms()[0].reason, AlarmReason::OwnPidSpoofed);
    }

    #[test]
    fn explicit_auth_round_on_clean_traffic_is_consistent() {
        let mut f = fabric(2, 1000);
        f.broadcast(ProcessorId::new(0), &line(1));
        assert_eq!(
            f.run_auth_round(ProcessorId::new(1)),
            AuthOutcome::Consistent
        );
    }

    #[test]
    #[should_panic(expected = "IVs must differ")]
    fn equal_ivs_rejected() {
        GroupFabric::new(
            GroupId::new(0),
            vec![ProcessorId::new(0)],
            &[0; 16],
            Block::ZERO,
            Block::ZERO,
            2,
            1,
            64,
        );
    }

    #[test]
    fn suspend_resume_preserves_lockstep() {
        let mut f = fabric(3, 1000);
        for i in 0..7u8 {
            f.broadcast(ProcessorId::new(i % 3), &line(i));
        }
        let suspended = f.suspend();
        let mut resumed = GroupFabric::resume(&suspended, &[0x44; 16]).unwrap();
        // Traffic continues seamlessly after the swap-in.
        for i in 7..20u8 {
            let data = line(i);
            for (_, got) in resumed.broadcast(ProcessorId::new(i % 3), &data) {
                assert_eq!(got, data, "post-resume message {i}");
            }
        }
        assert!(!resumed.is_halted());
        assert_eq!(
            resumed.run_auth_round(ProcessorId::new(1)),
            AuthOutcome::Consistent
        );
    }

    #[test]
    fn tampered_context_fails_resume() {
        let f = fabric(2, 10);
        let mut suspended = f.suspend();
        suspended.ciphertext[3] ^= 1;
        assert!(GroupFabric::resume(&suspended, &[0x44; 16]).is_err());
    }

    #[test]
    fn wrong_key_fails_resume() {
        let f = fabric(2, 10);
        let suspended = f.suspend();
        assert!(GroupFabric::resume(&suspended, &[0x45; 16]).is_err());
    }

    #[test]
    fn auth_interval_drives_rounds() {
        let mut f = fabric(2, 5);
        for i in 0..25u8 {
            f.broadcast(ProcessorId::new(i % 2), &line(i));
        }
        // 25 messages / interval 5 = 5 rounds; all consistent.
        assert!(!f.is_halted());
    }
}
