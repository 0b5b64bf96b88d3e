//! Integration: the §3.2 attack taxonomy against the functional secure
//! bus, checked through the public crate APIs only.

use senss::auth::AuthOutcome;
use senss::fabric::{BusMessage, GroupFabric};
use senss::group::{GroupId, MessageTag, ProcessorId};
use senss_attacks::scenarios;
use senss_crypto::Block;

#[test]
fn all_scripted_attacks_are_detected_by_senss() {
    let reports = scenarios::all();
    assert_eq!(reports.len(), 7);
    for r in &reports {
        assert!(r.detected_by_senss, "{} missed: {}", r.name, r.detail);
    }
}

#[test]
fn baseline_blindspots_match_the_paper() {
    // The paper's §8 critique of Shi et al.: non-chained MACs miss Type 1
    // and Type 3 (drop/spoof/replay) attacks.
    let by_name: std::collections::HashMap<_, _> =
        scenarios::all().into_iter().map(|r| (r.name, r)).collect();
    for name in [
        "type1-split-drop",
        "type1-receiver-blackout",
        "type3-own-pid-spoof",
        "type3-subset-spoof",
        "type3-replay",
    ] {
        assert!(
            !by_name[name].detected_by_baseline,
            "{name}: baseline unexpectedly detected it"
        );
    }
}

fn fabric(n: u8, interval: u64) -> GroupFabric {
    GroupFabric::new(
        GroupId::new(9),
        (0..n).map(ProcessorId::new).collect(),
        &[0x88; 16],
        Block::from([3; 16]),
        Block::from([4; 16]),
        4,
        interval,
        128,
    )
}

#[test]
fn tampered_payload_diverges_at_next_auth_round() {
    let mut f = fabric(2, 1_000_000);
    let a = ProcessorId::new(0);
    let b = ProcessorId::new(1);
    let data = vec![Block::from([0x42; 16]); 4];
    let mut msg = f.send(a, &data);
    // Flip one ciphertext bit in flight.
    msg.payload[2] ^= Block::from_words(1, 0);
    let got = f.deliver(&msg, b).expect("delivered");
    assert_ne!(got, data, "tampered ciphertext decrypts wrong");
    match f.run_auth_round(a) {
        AuthOutcome::AlarmRaised { dissenting, .. } => {
            assert_eq!(dissenting, vec![b]);
        }
        other => panic!("tamper not detected: {other:?}"),
    }
}

#[test]
fn detection_survives_arbitrary_clean_traffic_after_the_attack() {
    // Chained MACs never re-converge: an attack followed by thousands of
    // clean transfers is still caught at the next round.
    let mut f = fabric(3, 1_000_000);
    let (a, b, c) = (
        ProcessorId::new(0),
        ProcessorId::new(1),
        ProcessorId::new(2),
    );
    // Drop one message from c.
    let msg = f.send(a, &[Block::from([1; 16])]);
    f.deliver(&msg, b);
    // 500 clean broadcasts afterwards... but c is desynced, so its
    // decrypted plaintexts differ silently. Drive deliveries manually.
    for i in 0..500u16 {
        let d = [Block::from([(i % 251) as u8; 16])];
        let m = f.send(a, &d);
        f.deliver(&m, b);
        f.deliver(&m, c);
    }
    match f.run_auth_round(a) {
        AuthOutcome::AlarmRaised { dissenting, .. } => {
            assert!(dissenting.contains(&c));
        }
        other => panic!("drop healed over: {other:?}"),
    }
}

#[test]
fn cross_group_messages_are_ignored_by_tag() {
    // Message tagging: a message of group 9 must not be picked up by a
    // processor using its group-5 state. We model this at the API level:
    // the SHU's bit matrix decides pickup.
    use senss::shu::BitMatrix;
    let mut matrix = BitMatrix::new();
    let g5 = GroupId::new(5);
    let g9 = GroupId::new(9);
    let p = ProcessorId::new(2);
    matrix.set(g5, p);
    let msg = BusMessage {
        tag: MessageTag {
            gid: g9,
            pid: ProcessorId::new(0),
        },
        payload: vec![Block::ZERO],
    };
    // The snoop-path check the SHU performs in O(1):
    assert!(
        !matrix.contains(msg.tag.gid, p),
        "message must be discarded"
    );
    assert!(matrix.contains(g5, p));
}

#[test]
fn spoof_with_foreign_gid_is_filtered_before_crypto() {
    // An adversary spoofing an unknown GID never reaches the mask chain:
    // the bit matrix row is empty on every processor.
    use senss::shu::BitMatrix;
    let matrix = BitMatrix::new();
    for pid in 0..4u8 {
        assert!(!matrix.contains(GroupId::new(1000), ProcessorId::new(pid)));
    }
}
