//! A secure "banking server" end to end: dispatch, groups, encrypted bus.
//!
//! Walks the full SENSS lifecycle the paper describes in §4.1:
//!
//! 1. the machine is manufactured with per-processor RSA key pairs,
//! 2. a bank dispatches its (encrypted) transaction-processing program to
//!    a trusted *group* of 3 of the 4 processors — the 4th handles the
//!    network stack and is deliberately excluded,
//! 3. the group members recover the session key, reserve a GID and
//!    initialize their mask chains,
//! 4. encrypted cache-to-cache traffic flows with chained authentication,
//! 5. the same program is also timed on the cycle-level simulator.
//!
//! ```sh
//! cargo run -p senss-bench --example secure_server
//! ```

use senss::dispatch::{Distributor, ProcessorIdentity};
use senss::prelude::*;
use senss_crypto::Block;
use senss_sim::{NullExtension, System, SystemConfig};
use senss_workloads::Workload;

fn main() {
    // --- 1. the machine ---
    let all_pids: Vec<ProcessorId> = (0..4).map(ProcessorId::new).collect();
    let identities: Vec<ProcessorIdentity> = all_pids
        .iter()
        .map(|&pid| ProcessorIdentity::manufacture(pid, 0xBA2C))
        .collect();
    println!("machine: 4 processors with sealed key pairs");

    // --- 2. dispatch to a trusted subset ---
    let group_members = &identities[..3]; // P3 (network stack) excluded
    let members: Vec<_> = group_members
        .iter()
        .map(|i| (i.pid, i.public_key()))
        .collect();
    let session_key = [0xB4; 16];
    let program = b"balance-transfer-service v1.0 (encrypted image)".to_vec();
    let pkg = Distributor::new(session_key)
        .dispatch(&program, &members, Block::from([0x11; 16]))
        .expect("dispatch");
    println!(
        "dispatch: program ({} bytes) encrypted; session key wrapped for {} members",
        program.len(),
        pkg.wrapped_keys.len()
    );

    // --- 3. group setup ---
    let gid = GroupId::new(7);
    for id in group_members {
        let k = id.recover_session_key(&pkg).expect("member unwraps key");
        assert_eq!(k, session_key);
        let image = id.decrypt_program(&pkg, &k).expect("decrypt image");
        assert_eq!(image, program);
    }
    match identities[3].recover_session_key(&pkg) {
        Err(e) => println!("excluded P3 cannot join: {e}"),
        Ok(_) => unreachable!("non-member must not recover the key"),
    }

    // --- 4. encrypted, authenticated bus traffic ---
    let mut fabric = GroupFabric::new(
        gid,
        group_members.iter().map(|i| i.pid).collect(),
        &session_key,
        Block::from([0xC0; 16]), // encryption IV (fresh per run)
        Block::from([0xA7; 16]), // authentication IV (distinct!)
        2,
        10,
        64,
    );
    for txn in 0..100u8 {
        let sender = ProcessorId::new(txn % 3);
        let account_line: Vec<Block> = (0..4u8)
            .map(|i| Block::from([txn.wrapping_add(i); 16]))
            .collect();
        let received = fabric.broadcast(sender, &account_line);
        for (_, data) in received {
            assert_eq!(data, account_line);
        }
    }
    assert!(!fabric.is_halted());
    println!("bus: 100 encrypted transfers, 10 authentication rounds, no alarms");

    // --- 5. performance on the cycle-level simulator ---
    let cfg = SystemConfig::e6000(3, 1 << 20);
    let base = System::new(
        cfg.clone(),
        Workload::Lu.generate(3, 8_000, 9),
        NullExtension,
    )
    .run();
    let sec = System::new(
        cfg,
        Workload::Lu.generate(3, 8_000, 9),
        SenssExtension::new(SenssConfig::paper_default(3)),
    )
    .run();
    println!(
        "performance: lu on the 3-member group — {:+.3}% slowdown, {:+.2}% extra bus traffic",
        sec.slowdown_vs(&base),
        sec.bus_increase_vs(&base)
    );
}
