//! Randomized-but-deterministic tests for the GCM fabric variant
//! (formerly proptest; now driven by the in-tree [`SplitMix64`]).

use senss::gcm_fabric::{GcmDeliveryError, GcmFabric};
use senss::group::{GroupId, ProcessorId};
use senss_crypto::rng::SplitMix64;
use senss_crypto::Block;

fn fabric(key: [u8; 16], n: u8) -> GcmFabric {
    GcmFabric::new(
        GroupId::new(6),
        (0..n).map(ProcessorId::new).collect(),
        &key,
        Block::from([0x31; 16]),
        64,
    )
}

fn key16(rng: &mut SplitMix64) -> [u8; 16] {
    let mut k = [0u8; 16];
    rng.fill_bytes(&mut k);
    k
}

fn bytes(rng: &mut SplitMix64, len: usize) -> Vec<u8> {
    let mut v = vec![0u8; len];
    rng.fill_bytes(&mut v);
    v
}

/// Arbitrary clean traffic roundtrips for every receiver under GCM.
#[test]
fn gcm_traffic_roundtrips() {
    let mut rng = SplitMix64::new(0xC1);
    for case in 0..32u64 {
        let key = key16(&mut rng);
        let n = 2 + (case % 3) as u8;
        let mut f = fabric(key, n);
        for _ in 0..1 + rng.next_below(24) {
            let sender = ProcessorId::new(rng.next_below(n as u64) as u8);
            let len = 1 + rng.next_below(95) as usize;
            let data = bytes(&mut rng, len);
            let msg = f.send(sender, &data);
            for r in 0..n {
                let r = ProcessorId::new(r);
                if r == sender {
                    continue;
                }
                assert_eq!(f.deliver(&msg, r).unwrap(), data);
            }
        }
        assert!(f.alarms().is_empty());
    }
}

/// Any single-bit ciphertext flip fails immediately at every receiver.
#[test]
fn gcm_catches_any_bit_flip() {
    let mut rng = SplitMix64::new(0xC2);
    for _ in 0..32 {
        let key = key16(&mut rng);
        let len = 1 + rng.next_below(63) as usize;
        let data = bytes(&mut rng, len);
        let mut f = fabric(key, 2);
        let mut msg = f.send(ProcessorId::new(0), &data);
        let nbits = msg.ciphertext.len() * 8;
        let b = rng.next_below(nbits as u64) as usize;
        msg.ciphertext[b / 8] ^= 1 << (b % 8);
        assert_eq!(
            f.deliver(&msg, ProcessorId::new(1)),
            Err(GcmDeliveryError::TagFailure)
        );
    }
}

/// A replayed message always trips the sequence check, regardless of how
/// much clean traffic separates capture from replay.
#[test]
fn gcm_catches_replay_after_any_gap() {
    let mut rng = SplitMix64::new(0xC3);
    for gap in 0usize..20 {
        let key = key16(&mut rng);
        let mut f = fabric(key, 2);
        let captured = f.send(ProcessorId::new(0), b"capture me");
        f.deliver(&captured, ProcessorId::new(1)).unwrap();
        for i in 0..gap {
            let m = f.send(ProcessorId::new(0), &[i as u8; 8]);
            f.deliver(&m, ProcessorId::new(1)).unwrap();
        }
        let replay_result = f.deliver(&captured, ProcessorId::new(1));
        let caught = matches!(
            replay_result,
            Err(GcmDeliveryError::SequenceMismatch { .. })
        );
        assert!(caught, "replay outcome: {replay_result:?}");
    }
}
