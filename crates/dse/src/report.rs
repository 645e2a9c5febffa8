//! Aggregating a result store into report tables.
//!
//! Bridges the store to the existing [`muchisim_viz::ReportTable`]
//! machinery: rows are rebuilt from each record's stored configuration
//! and counters, in spec expansion order. Because the store keeps inputs
//! next to outputs, the same records can be *re-priced* — the energy/cost
//! post-processing re-run under overridden model parameters without
//! re-simulating (paper §III-E).

use crate::error::DseError;
use crate::overrides::{apply_to_config, Override};
use crate::store::{JsonlStore, RunRecord};
use muchisim_energy::Report;
use muchisim_viz::{ReportRow, ReportTable};

/// The energy/cost report of one record with `overrides` applied to its
/// stored configuration first — re-pricing without re-simulating.
///
/// # Errors
///
/// Returns [`DseError`] when an override does not apply cleanly.
pub fn repriced_report_for(record: &RunRecord, overrides: &[Override]) -> Result<Report, DseError> {
    let cfg = apply_to_config(&record.config, overrides)?;
    Ok(Report::from_counters(&cfg, &record.result.counters))
}

/// Builds the comparison table for a whole store, rows in spec expansion
/// order, with `overrides` (possibly empty) applied to every record's
/// configuration before the energy/cost post-processing.
///
/// # Errors
///
/// Returns [`DseError`] when an override does not apply cleanly.
pub fn table_from_store(
    store: &JsonlStore,
    overrides: &[Override],
) -> Result<ReportTable, DseError> {
    let mut table = ReportTable::new();
    for record in store.sorted_records() {
        let report = repriced_report_for(record, overrides)?;
        table.push(ReportRow::new(
            &record.config_label,
            &record.app,
            &record.dataset,
            &record.result,
            &report,
        ));
    }
    Ok(table)
}
