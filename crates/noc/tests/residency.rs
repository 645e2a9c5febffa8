//! Idle queue state is never written: a million-tile network's credit
//! table and a two-million-entry queue-link table, built as the engine
//! builds them, add (almost) nothing to the resident set.
//!
//! Both tables are collected in place from a zeroed `Vec`, and the map
//! from zero words to zero words compiles to no stores at all in an
//! optimized build, so their pages stay unmapped until a queue is used.
//! Nothing in the language promises that elision: this test is what
//! catches a toolchain that stops making it (the tables would then be
//! written in full — about 44 MiB here). A debug build, or a release
//! build with debug assertions on, writes every element, so the test
//! measures only builds without debug assertions (`cargo test --release
//! -p muchisim-noc --test residency`); it also skips where
//! `/proc/self/status` has no `VmRSS` line.
//!
//! The binary holds this one test, so no other test's allocations run
//! while it reads `VmRSS`.

use muchisim_config::SystemConfig;
use muchisim_noc::{Network, NetworkParams, QueueLink};

/// The process's resident set size in KiB (`VmRSS`), if the OS has one.
fn vm_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib = status.lines().find_map(|l| l.strip_prefix("VmRSS:"))?;
    kib.trim().strip_suffix("kB")?.trim().parse().ok()
}

#[test]
fn idle_credit_and_link_tables_stay_unwritten() {
    if cfg!(debug_assertions) {
        eprintln!("debug assertions on: the build writes every element, residency not checked");
        return;
    }
    let Some(before) = vm_rss_kib() else {
        eprintln!("no VmRSS in /proc/self/status: residency not checked");
        return;
    };
    let cfg = SystemConfig::builder()
        .chiplet_tiles(1024, 1024)
        .build()
        .unwrap();
    let net = Network::new(NetworkParams::from_system(&cfg), 1);
    let links = QueueLink::table(2 << 20);
    let after = vm_rss_kib().expect("VmRSS was readable a moment ago");
    let added = after.saturating_sub(before);
    drop(net);
    assert!(
        added < 1024,
        "a 1024x1024 network and {} idle queue links added {added} KiB resident",
        links.len()
    );
    assert!(links.iter().all(QueueLink::is_empty));
}
