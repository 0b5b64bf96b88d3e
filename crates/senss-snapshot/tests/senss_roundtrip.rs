//! End-to-end round-trip with the full SENSS stack: secured bus
//! (SHU masks, auth intervals) plus memory protection (sequence-number
//! cache, pad directory). Checkpoints taken mid-run must encode,
//! decode, and restore to a system whose finished `Stats` are
//! bit-identical to the uninterrupted run — including the extension's
//! own state, which rides in the `x <key> <value>` section.

use senss::{SenssConfig, SenssExtension};
use senss_memprot::{MemProtConfig, MemProtPolicy};
use senss_sim::config::SystemConfig;
use senss_sim::system::System;
use senss_sim::trace::{Op, VecTrace};
use senss_snapshot::Snapshot;

fn traces(n: usize) -> Vec<VecTrace> {
    (0..4)
        .map(|pid| {
            VecTrace::new(
                (0..n as u64)
                    .map(|i| {
                        // Overlapping working sets so cache-to-cache
                        // transfers (the secured path) actually happen.
                        let addr = ((i * 7 + pid as u64 * 13) % 96) * 64;
                        if (i + pid as u64).is_multiple_of(3) {
                            Op::write(i % 5, addr)
                        } else {
                            Op::read(i % 4, addr)
                        }
                    })
                    .collect(),
            )
        })
        .collect()
}

fn make_ext() -> SenssExtension {
    let cfg = SenssConfig::paper_default(4)
        .with_masks(2)
        .with_auth_interval(20);
    let policy = MemProtPolicy::new(MemProtConfig::paper_default(4));
    SenssExtension::new(cfg).with_memory_protection(policy)
}

#[test]
fn senss_extension_round_trips_through_text_codec() {
    let cfg = SystemConfig::e6000(4, 1 << 20);
    let cold = System::new(cfg.clone(), traces(500), make_ext()).run();
    assert!(cold.txn_auth > 0, "auth path not exercised");
    assert!(
        cold.txn_pad_request + cold.txn_pad_invalidate > 0,
        "pad path not exercised"
    );

    for divisor in [5, 3, 2] {
        let cycle = cold.total_cycles / divisor;
        let mut sys = System::new(cfg.clone(), traces(500), make_ext());
        sys.run_until(cycle);
        let snap = Snapshot::capture(&sys, cycle);

        let text = snap.encode();
        let back = Snapshot::decode(&text).expect("snapshot decodes");
        assert_eq!(back, snap);
        assert_eq!(back.encode(), text, "re-encode must be canonical");

        // A fresh (reset-state) extension gets the captured state
        // re-imposed during restore.
        let warm = back.restore(make_ext()).finish();
        assert_eq!(warm, cold, "restored run diverged at cycle {cycle}");

        // The interrupted original must also finish identically.
        assert_eq!(sys.finish(), cold);
    }
}

#[test]
fn extension_state_is_present_in_encoding() {
    let cfg = SystemConfig::e6000(4, 1 << 20);
    let mut sys = System::new(cfg, traces(500), make_ext());
    let total = 40_000;
    sys.run_until(total);
    let text = Snapshot::capture(&sys, total).encode();
    for key in ["shu.secured", "g0.auth", "mp.snc.clock", "mp.pad.bcasts"] {
        assert!(
            text.lines().any(|l| l.starts_with(&format!("x {key} "))),
            "extension key {key} missing from encoding"
        );
    }
}
