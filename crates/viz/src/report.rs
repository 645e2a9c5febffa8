//! Multi-run comparison tables (the CLI plotting tool, paper §III-F):
//! metrics for combinations of DUT configurations, applications and
//! datasets, absolute or normalized to a baseline.

use muchisim_config::output::csv_table;
use muchisim_core::SimResult;
use muchisim_energy::Report;
use serde::Serialize;

/// The metrics of one evaluation (one config + app + dataset run).
#[derive(Debug, Clone, PartialEq, Default, Serialize)]
pub struct ReportRow {
    /// Configuration label (e.g., "32T/Ch 256KiB").
    pub config: String,
    /// Application label (e.g., "BFS").
    pub app: String,
    /// Dataset label (e.g., "RMAT-12").
    pub dataset: String,
    /// DUT runtime in seconds.
    pub runtime_s: f64,
    /// FLOP/s.
    pub flops: f64,
    /// TEPS-style application throughput.
    pub app_throughput: f64,
    /// Total energy in joules.
    pub energy_j: f64,
    /// Average power in watts.
    pub power_w: f64,
    /// System cost in USD.
    pub cost_usd: f64,
    /// FLOP/s per watt.
    pub flops_per_watt: f64,
    /// FLOP/s per dollar.
    pub flops_per_dollar: f64,
    /// Total NoC traffic in message hops.
    pub msg_hops: u64,
    /// Cache hit rate.
    pub hit_rate: f64,
    /// Host (simulator) seconds.
    pub sim_s: f64,
    /// Simulator throughput in simulated NoC cycles per host second.
    pub sim_cycles_per_s: f64,
    /// Host simulation-state bytes per simulated tile.
    pub host_bytes_per_tile: f64,
    /// Host nanoseconds spent in the PU phase (built-in phase profiler).
    pub phase_pu_ns: u64,
    /// Host nanoseconds spent in the CQ→NoC inject phase.
    pub phase_inject_ns: u64,
    /// Host nanoseconds spent stepping the NoC.
    pub phase_net_ns: u64,
    /// Host nanoseconds spent on worklist bookkeeping.
    pub phase_worklist_ns: u64,
    /// Router visits that ran the full evaluation and moved a packet
    /// (`SimResult::host_router_visits`).
    pub visits_moved: u64,
    /// Router visits that ran the full evaluation for nothing.
    pub visits_stalled: u64,
    /// Router-cycles a back-pressured router slept through on its stall
    /// memo, settled without a visit (the column keeps the name stored
    /// records carry from when these were replayed visits).
    pub visits_replayed: u64,
    /// Router-cycles skipped by the wake check because no head could
    /// move yet (immature heads, busy links).
    pub visits_asleep: u64,
    /// Median NoC packet latency in cycles (from the log2 histogram).
    pub noc_p50: u64,
    /// 95th-percentile NoC packet latency in cycles.
    pub noc_p95: u64,
    /// 99th-percentile NoC packet latency in cycles.
    pub noc_p99: u64,
    /// How the run ended: `finished`, `ward:<name>`, or an error label
    /// ([`SimResult::termination_label`]).
    pub term: String,
}

impl ReportRow {
    /// Builds a row from a simulation result and its energy report.
    pub fn new(
        config: impl Into<String>,
        app: impl Into<String>,
        dataset: impl Into<String>,
        result: &SimResult,
        report: &Report,
    ) -> Self {
        ReportRow {
            config: config.into(),
            app: app.into(),
            dataset: dataset.into(),
            runtime_s: result.runtime.as_secs(),
            flops: report.flops,
            app_throughput: report.app_throughput,
            energy_j: report.energy.total_pj() * 1e-12,
            power_w: report.average_power_w,
            cost_usd: report.cost.total_usd,
            flops_per_watt: report.flops_per_watt,
            flops_per_dollar: report.flops_per_dollar,
            msg_hops: result.counters.noc.msg_hops,
            hit_rate: result.counters.mem.hit_rate(),
            sim_s: result.host_seconds,
            sim_cycles_per_s: result.sim_cycles_per_sec(),
            host_bytes_per_tile: result.bytes_per_tile(),
            phase_pu_ns: result.host_phase_ns.pu,
            phase_inject_ns: result.host_phase_ns.inject,
            phase_net_ns: result.host_phase_ns.net,
            phase_worklist_ns: result.host_phase_ns.worklist,
            visits_moved: result.host_router_visits.evaluated_moved,
            visits_stalled: result.host_router_visits.evaluated_stalled,
            visits_replayed: result.host_router_visits.replayed,
            visits_asleep: result.host_router_visits.asleep,
            noc_p50: result.noc_latency.percentile(0.50),
            noc_p95: result.noc_latency.percentile(0.95),
            noc_p99: result.noc_latency.percentile(0.99),
            term: result.termination_label().to_string(),
        }
    }

    /// Worklist bookkeeping as a fraction of attributed host time (0 when
    /// no phases were recorded).
    pub(crate) fn worklist_share(&self) -> f64 {
        let total =
            self.phase_pu_ns + self.phase_inject_ns + self.phase_net_ns + self.phase_worklist_ns;
        if total == 0 {
            0.0
        } else {
            self.phase_worklist_ns as f64 / total as f64
        }
    }
}

/// A collection of evaluation rows with table / CSV / normalization
/// helpers.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ReportTable {
    /// The rows, in insertion order.
    pub rows: Vec<ReportRow>,
}

impl ReportTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        ReportTable::default()
    }

    /// Appends a row.
    pub fn push(&mut self, row: ReportRow) {
        self.rows.push(row);
    }

    /// Serializes all rows as CSV: one column per [`ReportRow`] field.
    pub fn to_csv(&self) -> String {
        csv_table(&self.rows)
    }

    /// Improvement factors of a metric over a baseline configuration,
    /// per (app, dataset) pair — the paper's Fig. 5 presentation.
    ///
    /// Returns `(config, app, dataset, factor)` for every non-baseline
    /// row that has a matching baseline row.
    pub fn normalized_to(
        &self,
        baseline_config: &str,
        metric: impl Fn(&ReportRow) -> f64,
    ) -> Vec<(String, String, String, f64)> {
        let mut out = Vec::new();
        for row in &self.rows {
            if row.config == baseline_config {
                continue;
            }
            let base = self.rows.iter().find(|b| {
                b.config == baseline_config && b.app == row.app && b.dataset == row.dataset
            });
            if let Some(base) = base {
                let denom = metric(base);
                if denom != 0.0 {
                    out.push((
                        row.config.clone(),
                        row.app.clone(),
                        row.dataset.clone(),
                        metric(row) / denom,
                    ));
                }
            }
        }
        out
    }

    /// A human-readable aligned table of the key metrics.
    pub fn to_text(&self) -> String {
        let mut out = format!(
            "{:<20} {:<8} {:<10} {:>12} {:>12} {:>10} {:>10} {:>10} {:>8} {:>7} {:>8} {:<14}\n",
            "config",
            "app",
            "dataset",
            "runtime_s",
            "flops",
            "power_w",
            "cost_usd",
            "simcyc/s",
            "B/tile",
            "wklst%",
            "noc_p95",
            "term"
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{:<20} {:<8} {:<10} {:>12.3e} {:>12.3e} {:>10.2} {:>10.0} {:>10.3e} {:>8.0} {:>7.1} {:>8} {:<14}\n",
                r.config,
                r.app,
                r.dataset,
                r.runtime_s,
                r.flops,
                r.power_w,
                r.cost_usd,
                r.sim_cycles_per_s,
                r.host_bytes_per_tile,
                r.worklist_share() * 100.0,
                r.noc_p95,
                r.term
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(config: &str, app: &str, flops: f64) -> ReportRow {
        ReportRow {
            config: config.into(),
            app: app.into(),
            dataset: "rmat".into(),
            runtime_s: 1.0,
            flops,
            app_throughput: flops,
            energy_j: 1.0,
            power_w: 10.0,
            cost_usd: 100.0,
            flops_per_watt: flops / 10.0,
            flops_per_dollar: flops / 100.0,
            msg_hops: 5,
            hit_rate: 0.9,
            sim_s: 0.1,
            sim_cycles_per_s: 1e6,
            host_bytes_per_tile: 640.0,
            phase_pu_ns: 3,
            phase_inject_ns: 2,
            phase_net_ns: 4,
            phase_worklist_ns: 1,
            visits_moved: 30,
            visits_stalled: 5,
            visits_replayed: 65,
            visits_asleep: 900,
            noc_p50: 12,
            noc_p95: 48,
            noc_p99: 96,
            term: "finished".into(),
        }
    }

    #[test]
    fn csv_and_text_render() {
        let mut t = ReportTable::new();
        t.push(row("base", "BFS", 100.0));
        let csv = t.to_csv();
        assert!(csv.lines().count() == 2);
        assert!(csv.contains("base,BFS,rmat"));
        assert!(csv.lines().next().unwrap().contains("sim_cycles_per_s"));
        assert!(csv.lines().next().unwrap().contains("host_bytes_per_tile"));
        assert!(csv.lines().next().unwrap().contains("phase_worklist_ns"));
        assert!(csv
            .lines()
            .next()
            .unwrap()
            .ends_with("noc_p50,noc_p95,noc_p99,term"));
        assert!(csv.lines().next().unwrap().contains(
            "phase_worklist_ns,visits_moved,visits_stalled,visits_replayed,visits_asleep,noc_p50"
        ));
        assert!(csv
            .lines()
            .nth(1)
            .unwrap()
            .ends_with(",1,30,5,65,900,12,48,96,finished"));
        let text = t.to_text();
        assert!(text.contains("BFS"));
        assert!(text.contains("B/tile"));
        assert!(text.contains("wklst%"));
        assert!(text.contains("noc_p95"));
        assert!(text.contains("term"));
        assert!(text.contains("finished"));
    }

    #[test]
    fn termination_column_distinguishes_warded_rows() {
        let mut t = ReportTable::new();
        t.push(row("open", "BFS", 100.0));
        let mut warded = row("tight", "BFS", 10.0);
        warded.term = "ward:stall".into();
        t.push(warded);
        let text = t.to_text();
        assert!(text.contains("ward:stall"));
        let csv = t.to_csv();
        assert!(csv.contains(",ward:stall\n"));
    }

    #[test]
    fn worklist_share_of_attributed_time() {
        let r = row("base", "BFS", 1.0);
        assert!((r.worklist_share() - 0.1).abs() < 1e-12);
        let mut z = r;
        z.phase_pu_ns = 0;
        z.phase_inject_ns = 0;
        z.phase_net_ns = 0;
        z.phase_worklist_ns = 0;
        assert_eq!(z.worklist_share(), 0.0);
    }

    #[test]
    fn normalization_pairs_by_app() {
        let mut t = ReportTable::new();
        t.push(row("base", "BFS", 100.0));
        t.push(row("base", "SSSP", 50.0));
        t.push(row("big", "BFS", 300.0));
        t.push(row("big", "SSSP", 100.0));
        let norm = t.normalized_to("base", |r| r.flops);
        assert_eq!(norm.len(), 2);
        assert_eq!(norm[0].3, 3.0);
        assert_eq!(norm[1].3, 2.0);
    }
}
