//! Table I — default energy, bandwidth, latency and area parameters of
//! the links and memory devices modeled in MuchiSim.
//!
//! Regenerates the table from the live defaults and asserts every value
//! the paper prints that a model reads, so a drifting default breaks the
//! bench. The per-channel HBM bandwidth (64 GB/s) and the PHY beachfront
//! densities (880 / 1780 Gbit/s/mm) are not modelled, so not printed.

use muchisim_config::ModelParams;

fn row(label: &str, value: String) {
    println!("{label:<44} {value}");
}

fn main() {
    let p = ModelParams::default();
    muchisim_bench::rule("Table I: memory model parameters");
    row(
        "SRAM Density",
        format!("{} MB/mm^2", p.sram.density_mb_per_mm2),
    );
    row(
        "SRAM R/W Latency & E.",
        format!(
            "{} ns & {} / {} pJ/bit",
            p.sram.access_latency_ns, p.sram.read_energy_pj_per_bit, p.sram.write_energy_pj_per_bit
        ),
    );
    row(
        "Cache Tag Read & cmp. E.",
        format!("{} pJ", p.sram.tag_read_compare_energy_pj),
    );
    row(
        "HBM2E 4-high Density",
        format!(
            "{}GB on {}mm^2 ({:.0} MB/mm^2)",
            p.hbm.device_capacity_gb,
            p.hbm.device_area_mm2,
            p.hbm.device_capacity_gb * 1024.0 / p.hbm.device_area_mm2
        ),
    );
    row("Mem.Channels", format!("{}", p.hbm.channels_per_device));
    row(
        "Mem.Ctrl-to-HBM Latency & E.",
        format!(
            "{} ns & {} pJ/bit",
            p.hbm.ctrl_latency_ns, p.hbm.access_energy_pj_per_bit
        ),
    );
    row(
        "Bitline Refresh Period & E.",
        format!(
            "{} ms & {} pJ/bit",
            p.hbm.refresh_period_ms, p.hbm.refresh_energy_pj_per_bit
        ),
    );
    muchisim_bench::rule("Table I: wire & link model parameters");
    row(
        "MCM PHY Areal Density",
        format!("{} Gbits/mm^2", p.phy.mcm_areal_gbps_per_mm2),
    );
    row(
        "Si. Interposer PHY Areal Density",
        format!("{} Gbits/mm^2", p.phy.si_areal_gbps_per_mm2),
    );
    row(
        "Die-to-Die Link Latency & E.",
        format!(
            "{} ns & {} pJ/bit (<25 mm)",
            p.link.d2d_latency_ns, p.link.d2d_energy_pj_per_bit
        ),
    );
    row(
        "NoC Wire Latency & E.",
        format!(
            "{} ps/mm & {} pJ/bit/mm",
            p.link.noc_wire_latency_ps_per_mm, p.link.noc_wire_energy_pj_per_bit_mm
        ),
    );
    row(
        "NoC Router Latency & E.",
        format!(
            "{} ps & {} pJ/bit",
            p.link.noc_router_latency_ps, p.link.noc_router_energy_pj_per_bit
        ),
    );
    row(
        "I/O Die RX-TX Latency",
        format!("{} ns", p.link.io_die_latency_ns),
    );
    row(
        "Off-Package Link E.",
        format!(
            "{} pJ/bit (upto 80mm)",
            p.link.off_package_energy_pj_per_bit
        ),
    );

    // assert the paper's printed values
    assert_eq!(p.sram.density_mb_per_mm2, 3.5);
    assert_eq!(p.sram.access_latency_ns, 0.82);
    assert_eq!(
        (
            p.sram.read_energy_pj_per_bit,
            p.sram.write_energy_pj_per_bit
        ),
        (0.18, 0.28)
    );
    assert_eq!(p.sram.tag_read_compare_energy_pj, 6.3);
    assert_eq!(
        (p.hbm.device_capacity_gb, p.hbm.device_area_mm2),
        (8.0, 110.0)
    );
    assert_eq!(p.hbm.channels_per_device, 8);
    assert_eq!(
        (p.hbm.ctrl_latency_ns, p.hbm.access_energy_pj_per_bit),
        (50.0, 3.7)
    );
    assert_eq!(
        (p.hbm.refresh_period_ms, p.hbm.refresh_energy_pj_per_bit),
        (32.0, 0.22)
    );
    assert_eq!(p.phy.mcm_areal_gbps_per_mm2, 690.0);
    assert_eq!(p.phy.si_areal_gbps_per_mm2, 1070.0);
    assert_eq!(
        (p.link.d2d_latency_ns, p.link.d2d_energy_pj_per_bit),
        (4.0, 0.55)
    );
    assert_eq!(
        (
            p.link.noc_wire_latency_ps_per_mm,
            p.link.noc_wire_energy_pj_per_bit_mm
        ),
        (50.0, 0.15)
    );
    assert_eq!(
        (
            p.link.noc_router_latency_ps,
            p.link.noc_router_energy_pj_per_bit
        ),
        (500.0, 0.1)
    );
    assert_eq!(p.link.io_die_latency_ns, 20.0);
    assert_eq!(p.link.off_package_energy_pj_per_bit, 1.17);
    println!("\ntable1: all defaults match the paper");
}
