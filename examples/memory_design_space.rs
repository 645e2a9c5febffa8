//! Design-space exploration: the paper's §IV-C memory-integration case
//! study in miniature, driven through the `muchisim-dse` subsystem. The
//! whole experiment — SRAM size × tiles-per-HBM-channel, three apps, one
//! dataset — lives in `specs/memory_design_space.json`; this file only
//! runs the spec and prints the study's three views: the comparison
//! table, perf/$ normalized to the baseline, and a re-pricing of the
//! *same* simulations under a different HBM cost scenario without
//! re-simulating (paper §III-E).
//!
//! ```sh
//! cargo run --release --example memory_design_space
//! # or, equivalently, through the CLI:
//! muchisim sweep --spec specs/memory_design_space.json
//! ```

use muchisim::dse::{
    parse_assignment, repriced_report_for, table_from_store, BatchRunner, ExperimentSpec,
    JsonlStore,
};

const SPEC: &str = include_str!("../specs/memory_design_space.json");

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = ExperimentSpec::from_json(SPEC)?;

    // A fresh store each run: the example always re-simulates. Point the
    // CLI at a persistent store to get resumable sweeps instead.
    let store_path = std::path::Path::new("target/dse/memory_design_space_example.jsonl");
    let _ = std::fs::remove_file(store_path);
    let mut store = JsonlStore::open(store_path)?;

    // results do not depend on the threads per run; more threads than
    // cores only makes the spin barriers wait
    let budget = std::thread::available_parallelism().map_or(8, |n| n.get());
    let threads = spec.threads_per_run.min(budget);
    BatchRunner::new(budget).run_points(&spec.expand()?, threads, &mut store)?;
    for record in store.sorted_records() {
        assert!(
            record.result.check_error.is_none(),
            "{}: {:?}",
            record.run_id,
            record.result.check_error
        );
    }

    let table = table_from_store(&store, &[])?;
    println!("{}", table.to_text());
    println!("perf/$ improvement over the 32T/Ch 1KiB baseline:");
    for (cfg_label, app, _, factor) in
        table.normalized_to("32T/Ch 1KiB", |r| r.app_throughput / r.cost_usd)
    {
        println!("  {cfg_label:<14} {app:<6} {factor:5.2}x");
    }

    // Fig. 5's headline gains, as geomeans over the apps
    let gain = |from: &str, to: &str| {
        let factors: Vec<f64> = table
            .normalized_to(from, |r| r.app_throughput)
            .into_iter()
            .filter(|(cfg_label, ..)| cfg_label == to)
            .map(|(.., factor)| factor)
            .collect();
        geomean(&factors)
    };
    println!(
        "\nSRAM gain (32T/Ch, 1KiB -> 4KiB): {:.2}x geomean (paper: 3.5x for 64 -> 256 KiB)",
        gain("32T/Ch 1KiB", "32T/Ch 4KiB")
    );
    println!(
        "channel gain (4KiB, 32T/Ch -> 8T/Ch): {:.2}x geomean (paper: ~2x more)",
        gain("32T/Ch 4KiB", "8T/Ch 4KiB")
    );
    println!("cache hit rate by config, geomean over apps (paper: 83% -> 95%):");
    for point in &spec.axes[0].points {
        let rates: Vec<f64> = table
            .rows
            .iter()
            .filter(|r| r.config == point.label)
            .map(|r| r.hit_rate)
            .collect();
        println!("  {:<14} {:.3}", point.label, geomean(&rates));
    }

    // The decoupled cost model: re-price the same runs if HBM drops to
    // $3/GB (paper §III-E: "evaluating the performance-per-dollar of a
    // given simulation in the light of different DRAM cost scenarios").
    println!("\nre-pricing with HBM at $3/GB (no re-simulation):");
    let cheaper_hbm = [parse_assignment("params.cost.hbm_usd_per_gb=3.0")?];
    for record in store.sorted_records() {
        let report = repriced_report_for(record, &cheaper_hbm)?;
        println!(
            "  {:<14} {:<6} ${:>7.0} -> {:.2} kTEPS/$",
            record.config_label,
            record.app,
            report.cost.total_usd,
            report.app_throughput / report.cost.total_usd / 1e3
        );
    }
    Ok(())
}

fn geomean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}
