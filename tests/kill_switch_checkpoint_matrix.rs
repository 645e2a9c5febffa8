//! Checkpoint/resume under the `MUCHISIM_NO_LEAP` kill switch.
//!
//! A snapshot written under the default (leaping) driver must resume
//! bit-identically under the lockstep driver, and vice versa: the
//! snapshot captures *simulated* state only, and the env switch only
//! selects a host-side execution shortcut.
//!
//! Kept in its own integration-test binary with a single `#[test]`
//! because it mutates the process environment: cargo gives each test
//! file its own process, and a single test function cannot race itself.

use muchisim::apps::{run_benchmark, Benchmark};
use muchisim::config::{SystemConfig, Verbosity};
use muchisim::core::digest::trace_checksum;
use muchisim::core::SimResult;
use muchisim::data::rmat::RmatConfig;
use muchisim::data::Csr;
use std::sync::Arc;

fn cfg() -> SystemConfig {
    SystemConfig::builder()
        .chiplet_tiles(8, 8)
        .verbosity(Verbosity::V3)
        .frame_interval_cycles(256)
        .build()
        .expect("valid config")
}

fn run(c: SystemConfig, graph: &Arc<Csr>) -> SimResult {
    let r = run_benchmark(Benchmark::Bfs, c, graph, 1).expect("runs");
    assert!(r.check_error.is_none(), "{:?}", r.check_error);
    r
}

/// Sets or unsets the kill switch.
fn set_no_leap(off: bool) {
    if off {
        std::env::set_var("MUCHISIM_NO_LEAP", "1");
    } else {
        std::env::remove_var("MUCHISIM_NO_LEAP");
    }
}

#[test]
fn checkpoint_resume_is_invariant_under_kill_switches() {
    let graph = Arc::new(RmatConfig::scale(5).generate(0xC0FF_EE00));
    let base = cfg();
    let tiles = base.width() * base.height();
    set_no_leap(false);
    let reference = run(base.clone(), &graph);
    let want = trace_checksum(&reference, tiles);
    let every = (reference.runtime_cycles / 2).max(1);
    // every writer x every resumer: 4 split pairs, all landing on the
    // uninterrupted run's checksum
    for w_leap in [false, true] {
        let path = std::env::temp_dir()
            .join(format!(
                "muchisim-killswitch-{}-{w_leap}.snap",
                std::process::id()
            ))
            .to_string_lossy()
            .into_owned();
        set_no_leap(w_leap);
        let mut with_ckpt = base.clone();
        with_ckpt.checkpoint_path = Some(path.clone());
        with_ckpt.checkpoint_every = Some(every);
        let writer = run(with_ckpt, &graph);
        assert_eq!(
            trace_checksum(&writer, tiles),
            want,
            "checkpointing under no_leap={w_leap} perturbed the run"
        );
        assert!(
            std::path::Path::new(&path).exists(),
            "no snapshot written under no_leap={w_leap}"
        );
        for r_leap in [false, true] {
            set_no_leap(r_leap);
            let mut resume = base.clone();
            resume.checkpoint_path = Some(path.clone());
            resume.checkpoint_resume = true;
            let resumed = run(resume, &graph);
            assert_eq!(
                trace_checksum(&resumed, tiles),
                want,
                "write under no_leap={w_leap}, resume under no_leap={r_leap} diverged"
            );
        }
        let _ = std::fs::remove_file(&path);
    }
    set_no_leap(false);
}
