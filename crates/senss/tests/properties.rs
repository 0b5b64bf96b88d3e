//! Randomized-but-deterministic tests of the SENSS security layer
//! (formerly proptest; now driven by the in-tree [`SplitMix64`]).

use senss::auth::AuthOutcome;
use senss::busenc::MaskChain;
use senss::fabric::GroupFabric;
use senss::group::{GroupId, ProcessorId};
use senss::mask::MaskArray;
use senss_crypto::aes::Aes;
use senss_crypto::rng::SplitMix64;
use senss_crypto::Block;

fn key16(rng: &mut SplitMix64) -> [u8; 16] {
    let mut k = [0u8; 16];
    rng.fill_bytes(&mut k);
    k
}

/// All group members recover every payload for any member count, mask
/// count and message mix.
#[test]
fn fabric_roundtrips_arbitrary_traffic() {
    let mut rng = SplitMix64::new(0xB1);
    for case in 0..48u64 {
        let key = key16(&mut rng);
        let n = 2 + (case % 4) as u8;
        let masks = 1 + (case % 8) as usize;
        let mut f = GroupFabric::new(
            GroupId::new(1),
            (0..n).map(ProcessorId::new).collect(),
            &key,
            Block::from([1; 16]),
            Block::from([2; 16]),
            masks,
            7,
            64,
        );
        let msgs = 1 + rng.next_below(30);
        for _ in 0..msgs {
            let sender = ProcessorId::new(rng.next_below(n as u64) as u8);
            let payload: Vec<Block> = (0..1 + rng.next_below(4))
                .map(|_| rng.next_block())
                .collect();
            for (_, got) in f.broadcast(sender, &payload) {
                assert_eq!(got, payload);
            }
        }
        assert!(!f.is_halted(), "clean traffic must not alarm");
    }
}

/// Dropping any single message from any single receiver is detected at
/// the next authentication round.
#[test]
fn any_single_drop_is_detected() {
    let mut rng = SplitMix64::new(0xB2);
    for _ in 0..48 {
        let key = key16(&mut rng);
        let msgs: Vec<Block> = (0..1 + rng.next_below(19))
            .map(|_| rng.next_block())
            .collect();
        let drop_idx = rng.next_below(msgs.len() as u64) as usize;
        let n = 3u8;
        let victim = ProcessorId::new(2);
        let mut f = GroupFabric::new(
            GroupId::new(2),
            (0..n).map(ProcessorId::new).collect(),
            &key,
            Block::from([3; 16]),
            Block::from([4; 16]),
            2,
            1_000_000,
            128,
        );
        let sender = ProcessorId::new(0);
        for (i, &d) in msgs.iter().enumerate() {
            let m = f.send(sender, &[d]);
            f.deliver(&m, ProcessorId::new(1));
            if i != drop_idx {
                f.deliver(&m, victim);
            }
        }
        match f.run_auth_round(sender) {
            AuthOutcome::AlarmRaised { dissenting, .. } => {
                assert!(dissenting.contains(&victim));
            }
            AuthOutcome::Consistent => panic!("drop went undetected"),
        }
    }
}

/// Mask chains in lock-step decrypt correctly for any mask count and any
/// pid sequence.
#[test]
fn mask_chain_lockstep() {
    let mut rng = SplitMix64::new(0xB3);
    for case in 0..48 {
        let key = key16(&mut rng);
        let c0 = rng.next_block();
        let k = 1 + case % 9;
        let mut s = MaskChain::new(Aes::new_128(&key), c0, k);
        let mut r = MaskChain::new(Aes::new_128(&key), c0, k);
        for _ in 0..1 + rng.next_below(50) {
            let pid = rng.next_u64() as u32;
            let d = rng.next_block();
            let p = s.encrypt(d, pid);
            assert_eq!(r.decrypt(p, pid), d);
        }
    }
}

/// Mask timing: total stall is zero whenever the inter-arrival gap times
/// the mask count covers the AES latency.
#[test]
fn mask_array_stall_bound() {
    let latency = 80u64;
    for k in 1u64..12 {
        for gap in 1u64..40 {
            let mut arr = MaskArray::new(k as usize, latency, 10);
            let mut total = 0;
            for i in 0..200 {
                total += arr.acquire(i * gap);
            }
            if k * gap >= latency && gap >= 10 {
                assert_eq!(total, 0, "k={k} gap={gap} should never stall");
            }
        }
    }
}

/// Stalls are bounded by the AES latency plus the pipeline backlog
/// (queueing theory bound: each earlier acquisition adds at most one
/// initiation interval), and the array's accounting matches the sum of
/// returned stalls.
#[test]
fn mask_stall_bounded_by_backlog() {
    let mut rng = SplitMix64::new(0xB4);
    for case in 0..48 {
        let k = 1 + case % 9;
        let steps = 1 + rng.next_below(79) as usize;
        let mut arr = MaskArray::new(k, 80, 10);
        let mut now = 0u64;
        let mut total = 0u64;
        for i in 0..steps {
            now += rng.next_below(50);
            let stall = arr.acquire(now);
            assert!(
                stall <= 80 * (i as u64 + 1),
                "stall {stall} exceeds cumulative latency bound at step {i}"
            );
            total += stall;
        }
        assert_eq!(arr.total_stall(), total);
        assert_eq!(arr.acquisitions(), steps as u64);
    }
}
