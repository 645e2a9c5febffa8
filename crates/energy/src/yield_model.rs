//! Die yield (Murphy's model) and dies-per-wafer calculations, validated
//! against the industry die-yield calculators the paper cites.

/// Murphy's yield model: the fraction of good dies of area `area_mm2`
/// with `defect_density` defects per mm².
///
/// `Y = ((1 − e^(−A·D)) / (A·D))²`
pub(crate) fn murphy_yield(area_mm2: f64, defect_density: f64) -> f64 {
    let ad = area_mm2 * defect_density;
    if ad <= 0.0 {
        return 1.0;
    }
    let t = (1.0 - (-ad).exp()) / ad;
    t * t
}

/// Gross dies per wafer of diameter `wafer_mm`, with `edge_loss_mm`
/// unusable at the rim and `scribe_mm` scribe lines around each
/// `die_mm2` die.
///
/// Uses the standard estimate `π·r²/A − π·d/√(2A)` on the effective
/// (edge-trimmed) diameter.
pub(crate) fn dies_per_wafer(
    wafer_mm: f64,
    edge_loss_mm: f64,
    scribe_mm: f64,
    die_mm2: f64,
) -> u64 {
    let side = die_mm2.sqrt() + scribe_mm;
    let area = side * side;
    let d = (wafer_mm - 2.0 * edge_loss_mm).max(0.0);
    let gross = std::f64::consts::PI * (d / 2.0) * (d / 2.0) / area
        - std::f64::consts::PI * d / (2.0 * area).sqrt();
    gross.max(0.0).floor() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn yield_bounds() {
        assert_eq!(murphy_yield(0.0, 0.07), 1.0);
        let y = murphy_yield(100.0, 0.07);
        assert!(y > 0.0 && y < 1.0);
    }

    #[test]
    fn yield_decreases_with_area() {
        let small = murphy_yield(50.0, 0.07);
        let large = murphy_yield(500.0, 0.07);
        assert!(small > large);
    }

    #[test]
    fn yield_matches_reference_point() {
        // A·D = 7 for 100mm^2 at 0.07/mm^2:
        // Y = ((1 - e^-7)/7)^2 ~ 0.02034
        let y = murphy_yield(100.0, 0.07);
        assert!((y - 0.02034).abs() < 1e-4, "{y}");
        // small dies yield far better: 10mm^2 -> ((1-e^-0.7)/0.7)^2 ~ 0.5172
        let y = murphy_yield(10.0, 0.07);
        assert!((y - 0.5172).abs() < 1e-3, "{y}");
    }

    #[test]
    fn dies_per_wafer_reasonable() {
        // ~100mm^2 dies on a 300mm wafer: ~600 gross dies is the
        // well-known ballpark
        let n = dies_per_wafer(300.0, 4.0, 0.2, 100.0);
        assert!((500..700).contains(&n), "{n}");
        // bigger dies, fewer of them
        assert!(dies_per_wafer(300.0, 4.0, 0.2, 400.0) < n / 3);
    }

    #[test]
    fn wafer_scale_die_fits_zero_or_one() {
        let n = dies_per_wafer(300.0, 4.0, 0.2, 46_225.0);
        assert!(n <= 1, "{n}");
    }
}
