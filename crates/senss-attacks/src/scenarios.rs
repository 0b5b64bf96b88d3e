//! Scripted attack scenarios against the functional secure-bus fabric.
//!
//! Each scenario builds a group, drives real encrypted traffic through
//! [`GroupFabric`], perturbs it the way the paper's adversary would, and
//! records two verdicts:
//!
//! * `detected_by_senss` — did the chained-MAC machinery raise the global
//!   alarm (immediately for own-PID spoofs, at the next authentication
//!   round otherwise)?
//! * `detected_by_baseline` — would a per-message MAC scheme (Shi et
//!   al.-style: every message carries an individually valid tag) have
//!   noticed anything? For Type 1 drops and Type 3 subset-spoofs it
//!   cannot: every message any processor *sees* verifies fine.

use senss::auth::{AuthOutcome, BaselineAuth};
use senss::fabric::{BusMessage, GroupFabric};
use senss::group::{GroupId, MessageTag, ProcessorId};
use senss_crypto::aes::Aes;
use senss_crypto::Block;

/// Outcome of one scripted attack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttackReport {
    /// Scenario name for reporting.
    pub name: &'static str,
    /// SENSS (chained MAC + tagging) caught it.
    pub detected_by_senss: bool,
    /// The per-message baseline caught it.
    pub detected_by_baseline: bool,
    /// Human-readable explanation of what happened.
    pub detail: String,
}

const KEY: [u8; 16] = [0x5E; 16];

fn fabric(n: u8, interval: u64) -> GroupFabric {
    GroupFabric::new(
        GroupId::new(3),
        (0..n).map(ProcessorId::new).collect(),
        &KEY,
        Block::from([0xC0; 16]),
        Block::from([0xA0; 16]),
        2,
        interval,
        64,
    )
}

fn line(tag: u8) -> Vec<Block> {
    (0..4u8)
        .map(|i| Block::from([tag.wrapping_mul(17).wrapping_add(i); 16]))
        .collect()
}

/// Baseline observer: tags every plaintext message like Shi et al.'s
/// per-transfer MAC and checks each delivered message in isolation.
fn baseline() -> BaselineAuth {
    BaselineAuth::new(Aes::new_128(&KEY), Block::from([0xB0; 16]), 64)
}

/// **Type 1 — the paper's split-drop (§4.3 "Defending Type 1 attacks").**
///
/// Processor A sends `D_AB` intended for B in transaction *i*; C sends
/// `D_CD` intended for D in transaction *i+1*. The adversary drops
/// transaction *i* from {C, D} and transaction *i+1* from {A, B}. Every
/// processor still observes exactly one valid message, so per-message MACs
/// and bus sequence numbers see nothing — but the chained MACs split the
/// group into {A, B} and {C, D}, and the next authentication round raises
/// the alarm.
pub fn type1_split_drop() -> AttackReport {
    let mut f = fabric(4, 1_000_000); // manual auth below
    let (a, b, c, d) = (
        ProcessorId::new(0),
        ProcessorId::new(1),
        ProcessorId::new(2),
        ProcessorId::new(3),
    );
    let base = baseline();

    // Transaction i: A -> all, but the adversary blocks C and D.
    let d_ab = line(1);
    let tag_ab = base.tag(d_ab[0]);
    let msg_i = f.send(a, &d_ab);
    let got_b = f.deliver(&msg_i, b).expect("B receives");
    // Baseline check at B: the message verifies — nothing suspicious.
    let baseline_ok_at_b = base.verify(got_b[0], tag_ab);

    // Transaction i+1: C -> all, blocked from A and B.
    let d_cd = line(2);
    let tag_cd = base.tag(d_cd[0]);
    let msg_i1 = f.send(c, &d_cd);
    let got_d = f.deliver(&msg_i1, d).expect("D receives");
    let baseline_ok_at_d = base.verify(got_d[0], tag_cd);

    // SENSS: the next authentication round compares full histories.
    let outcome = f.run_auth_round(a);
    let detected = matches!(outcome, AuthOutcome::AlarmRaised { .. });

    AttackReport {
        name: "type1-split-drop",
        detected_by_senss: detected,
        detected_by_baseline: !(baseline_ok_at_b && baseline_ok_at_d),
        detail: format!(
            "auth outcome {outcome:?}; every delivered message carried a \
             valid per-message tag (B: {baseline_ok_at_b}, D: {baseline_ok_at_d})"
        ),
    }
}

/// **Type 1 — total blackout of one receiver.** The adversary blocks a
/// single processor from an entire stretch of traffic.
pub fn type1_receiver_blackout() -> AttackReport {
    let mut f = fabric(3, 1_000_000);
    let (a, b, c) = (
        ProcessorId::new(0),
        ProcessorId::new(1),
        ProcessorId::new(2),
    );
    for i in 0..10u8 {
        let msg = f.send(a, &line(i));
        f.deliver(&msg, b);
        // c never sees anything.
        let _ = c;
    }
    let outcome = f.run_auth_round(a);
    AttackReport {
        name: "type1-receiver-blackout",
        detected_by_senss: matches!(outcome, AuthOutcome::AlarmRaised { .. }),
        detected_by_baseline: false, // c saw nothing to check
        detail: format!("auth outcome {outcome:?}"),
    }
}

/// **Type 2 — swap the first two bus transfers (§4.3 "Defending Type 2
/// attacks").** Receivers see `m2` then `m1`. The masks alone would
/// *self-heal* after the swap (the paper's motivation for a separate
/// authentication IV); the chained MAC keeps the divergence forever.
pub fn type2_swap() -> AttackReport {
    let mut f = fabric(2, 1_000_000);
    let (a, b) = (ProcessorId::new(0), ProcessorId::new(1));
    let m1 = f.send(a, &line(1));
    let m2 = f.send(a, &line(2));
    // Deliver out of order.
    let r2 = f.deliver(&m2, b).expect("delivered");
    let r1 = f.deliver(&m1, b).expect("delivered");
    // The swap also garbles the plaintext the receiver recovers.
    let garbled = r2 != line(2) || r1 != line(1);
    let outcome = f.run_auth_round(a);
    AttackReport {
        name: "type2-swap",
        detected_by_senss: matches!(outcome, AuthOutcome::AlarmRaised { .. }),
        // A per-message MAC over plaintext would also notice garbled
        // plaintext here; over ciphertext it would not. The paper's point
        // is subtler (mask self-healing), so we credit the baseline.
        detected_by_baseline: garbled,
        detail: format!("garbled plaintext: {garbled}; auth outcome {outcome:?}"),
    }
}

/// **Type 3 — spoof with the victim's own PID.** The SHU snoops every
/// message of its groups; a message tagged with its own PID that it never
/// sent is flagged immediately (§4.3 "Defending Type 3 attacks").
pub fn type3_own_pid_spoof() -> AttackReport {
    let mut f = fabric(3, 1_000_000);
    let victim = ProcessorId::new(1);
    let forged = BusMessage {
        tag: MessageTag {
            gid: f.gid(),
            pid: victim,
        },
        payload: line(7),
    };
    let refused = f.deliver(&forged, victim).is_none();
    AttackReport {
        name: "type3-own-pid-spoof",
        detected_by_senss: refused && f.is_halted(),
        detected_by_baseline: false, // the tag was never checkable: forged afresh
        detail: format!("victim refused: {refused}, alarms: {:?}", f.alarms()),
    }
}

/// **Type 3 — spoof-to-subset.** The adversary singles out one processor
/// with a message tagged `(GID, PID=p')` where `p'` is another valid
/// member. No receiver can reject it on sight, but only the victim folds
/// it into its MAC — the chains diverge and the next round alarms.
pub fn type3_subset_spoof() -> AttackReport {
    let mut f = fabric(3, 1_000_000);
    let (a, b, c) = (
        ProcessorId::new(0),
        ProcessorId::new(1),
        ProcessorId::new(2),
    );
    // Normal traffic first.
    let m = f.send(a, &line(1));
    f.deliver(&m, b);
    f.deliver(&m, c);
    // Forged message "from C", shown only to B.
    let forged = BusMessage {
        tag: MessageTag {
            gid: f.gid(),
            pid: c,
        },
        payload: line(9),
    };
    let accepted = f.deliver(&forged, b).is_some();
    let outcome = f.run_auth_round(a);
    AttackReport {
        name: "type3-subset-spoof",
        detected_by_senss: matches!(outcome, AuthOutcome::AlarmRaised { .. }),
        detected_by_baseline: false, // B had no reference tag to check against
        detail: format!("victim accepted: {accepted}; auth outcome {outcome:?}"),
    }
}

/// **Type 3 — replay.** A legitimate ciphertext message is captured and
/// re-broadcast later. The receivers' chains have advanced, so the replay
/// decrypts to garbage and diverges the MACs; a per-message MAC scheme
/// (tag captured along with the message) verifies the replay as valid.
pub fn type3_replay() -> AttackReport {
    let mut f = fabric(2, 1_000_000);
    let (a, b) = (ProcessorId::new(0), ProcessorId::new(1));
    let base = baseline();
    let data = line(4);
    let tag = base.tag(data[0]);
    let msg = f.send(a, &data);
    let first = f.deliver(&msg, b).expect("delivered");
    assert_eq!(first, data, "legitimate delivery is clean");
    // … time passes, the adversary replays the captured ciphertext.
    let replayed = f.deliver(&msg, b).expect("fabric does not drop it");
    let garbage = replayed != data;
    // Baseline: the captured (plaintext, tag) pair still verifies.
    let baseline_fooled = base.verify(first[0], tag);
    let outcome = f.run_auth_round(a);
    AttackReport {
        name: "type3-replay",
        detected_by_senss: matches!(outcome, AuthOutcome::AlarmRaised { .. }) || garbage,
        detected_by_baseline: !baseline_fooled,
        detail: format!("replay decrypted to garbage: {garbage}; auth outcome {outcome:?}"),
    }
}

/// **Type 2 variant — in-flight tampering.** The adversary flips bits in
/// a ciphertext payload on the wire. The receiver decrypts garbage (it
/// cannot know yet) and its MAC chain diverges from the sender's; a
/// per-message MAC computed by the *sender over the plaintext* would
/// also catch this one — the baseline's one success.
pub fn type2_tamper_in_flight() -> AttackReport {
    let mut f = fabric(2, 1_000_000);
    let (a, b) = (ProcessorId::new(0), ProcessorId::new(1));
    let base = baseline();
    let data = line(6);
    let tag = base.tag(data[0]);
    let mut msg = f.send(a, &data);
    msg.payload[1] ^= senss_crypto::Block::from_words(0x40, 0);
    let got = f.deliver(&msg, b).expect("fabric delivers; crypto decides");
    let garbled = got != data;
    let baseline_catches =
        !base.verify(got[0], tag) || garbled && !base.verify(got[1], base.tag(data[1]));
    let outcome = f.run_auth_round(a);
    AttackReport {
        name: "type2-tamper-in-flight",
        detected_by_senss: matches!(outcome, AuthOutcome::AlarmRaised { .. }),
        detected_by_baseline: baseline_catches,
        detail: format!("plaintext garbled: {garbled}; auth outcome {outcome:?}"),
    }
}

/// Runs every scenario.
pub fn all() -> Vec<AttackReport> {
    vec![
        type1_split_drop(),
        type1_receiver_blackout(),
        type2_swap(),
        type2_tamper_in_flight(),
        type3_own_pid_spoof(),
        type3_subset_spoof(),
        type3_replay(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn senss_detects_every_attack() {
        let reports = all();
        assert_eq!(reports.len(), 7);
        for r in reports {
            assert!(
                r.detected_by_senss,
                "{}: SENSS missed it — {}",
                r.name, r.detail
            );
        }
    }

    #[test]
    fn tampering_is_caught_by_both_schemes() {
        let r = type2_tamper_in_flight();
        assert!(r.detected_by_senss);
        assert!(
            r.detected_by_baseline,
            "per-message MACs do catch plain tampering: {}",
            r.detail
        );
    }

    #[test]
    fn baseline_misses_drops_and_spoofs() {
        assert!(!type1_split_drop().detected_by_baseline);
        assert!(!type1_receiver_blackout().detected_by_baseline);
        assert!(!type3_own_pid_spoof().detected_by_baseline);
        assert!(!type3_subset_spoof().detected_by_baseline);
        assert!(!type3_replay().detected_by_baseline);
    }

    #[test]
    fn clean_traffic_raises_no_alarm() {
        let mut f = fabric(4, 5);
        for i in 0..50u8 {
            f.broadcast(ProcessorId::new(i % 4), &line(i));
        }
        assert!(!f.is_halted(), "false positive on clean traffic");
    }

    #[test]
    fn reports_have_detail() {
        for r in all() {
            assert!(!r.detail.is_empty(), "{}", r.name);
        }
    }
}
