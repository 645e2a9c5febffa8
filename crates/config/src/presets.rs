//! The named configuration preset of the paper's §IV-A validation, and
//! the JSON config-file format.
//!
//! A preset is a starting point the builder can refine; JSON
//! round-tripping ([`SystemConfig`] is fully serde-enabled) covers the
//! file-based workflow.
//!
//! The preset leaves the time-leaping cycle driver at its default
//! (enabled); `builder.time_leap(false)` flips it back to the
//! one-cycle-at-a-time driver for host-performance ablations — results
//! are bit-identical either way.

use crate::system::{NocTopology, SystemConfig, SystemConfigBuilder};

/// A Cerebras-WSE-like wafer: one monolithic die of `side × side` tiles,
/// 48 KiB of SRAM per tile (scratchpad), a 32-bit 2D mesh (paper §IV-A).
pub fn wse_like(side: u32) -> SystemConfigBuilder {
    let mut b = SystemConfig::builder();
    b.chiplet_tiles(side, side)
        .sram_kib_per_tile(48)
        .noc_width_bits(32)
        .noc_topology(NocTopology::Mesh)
        .scratchpad();
    b
}

/// Serializes a configuration to the JSON config-file format.
pub fn to_json(cfg: &SystemConfig) -> String {
    serde_json::to_string_pretty(cfg).expect("SystemConfig serializes")
}

/// Loads a configuration from JSON and validates it.
///
/// Config files written before the `time_leap` knob existed lack that
/// field; it defaults to `true` here (the vendored serde shim's
/// `#[serde(default)]` fills in `Default::default()`, which is `false`
/// for a `bool`, and it has no `default = "path"` form).
///
/// # Errors
///
/// Returns a message for malformed JSON or invalid configurations.
pub fn from_json(json: &str) -> Result<SystemConfig, String> {
    let mut value: serde::value::Value = serde_json::from_str(json).map_err(|e| e.to_string())?;
    if let serde::value::Value::Object(obj) = &mut value {
        if obj.get("time_leap").is_none() {
            obj.insert("time_leap".to_string(), serde::value::Value::Bool(true));
        }
    }
    let cfg: SystemConfig = serde::Deserialize::from_value(&value).map_err(|e| e.to_string())?;
    cfg.validate().map_err(|e| e.to_string())?;
    Ok(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_build_valid_configs() {
        assert_eq!(wse_like(32).build().unwrap().total_tiles(), 1024);
    }

    #[test]
    fn presets_default_to_time_leaping_driver() {
        assert!(wse_like(8).build().unwrap().time_leap);
        let off = wse_like(8).time_leap(false).build().unwrap();
        assert!(!off.time_leap);
    }

    #[test]
    fn presets_are_refinable() {
        let cfg = wse_like(16).pus_per_tile(2).build().unwrap();
        assert_eq!(cfg.pus_per_tile, 2);
        assert_eq!(cfg.sram_kib_per_tile, 48);
    }

    #[test]
    fn json_config_file_round_trip() {
        // refined to DRAM-backed tiles, so the memory model's data-carrying
        // variant round-trips too
        let cfg = wse_like(32)
            .dram(crate::system::DramConfig::default())
            .build()
            .unwrap();
        let json = to_json(&cfg);
        let back = from_json(&json).unwrap();
        assert_eq!(cfg, back);
    }

    #[test]
    fn json_without_time_leap_field_defaults_on() {
        // a config file written before the knob existed still loads
        let cfg = wse_like(8).build().unwrap();
        let json = to_json(&cfg).replace("\"time_leap\": true,", "");
        assert!(!json.contains("time_leap"), "field not stripped: {json}");
        let back = from_json(&json).unwrap();
        assert!(back.time_leap);
        assert_eq!(back.sram_kib_per_tile, cfg.sram_kib_per_tile);
    }

    #[test]
    fn json_with_the_removed_active_list_key_still_loads() {
        // config files from before the full-sweep mode was removed carry
        // `active_list`, possibly `false`; the worklist is the only sweep
        let cfg = wse_like(8).build().unwrap();
        let json = to_json(&cfg).replace(
            "\"time_leap\": true,",
            "\"time_leap\": true,\n  \"active_list\": false,",
        );
        assert!(
            json.contains("\"active_list\": false"),
            "key not spliced: {json}"
        );
        assert_eq!(from_json(&json).unwrap(), cfg);
    }

    #[test]
    fn json_with_the_removed_unread_keys_still_loads() {
        // config files and DSE stores from before the settings that no
        // model read were removed carry them, at any value
        let cfg = wse_like(8).build().unwrap();
        let mut json = to_json(&cfg);
        for (next_key, removed) in [
            ("\"time_leap\":", "\"inter_node_link_mux\": 2,"),
            (
                "\"buffer_depth\":",
                "\"reduction_tree\": {\"subtree_width\": 8},",
            ),
            (
                "\"leakage_w_per_mb\":",
                "\"bank_kib\": 32, \"mux_growth_per_doubling\": 0.7,",
            ),
            (
                "\"channels_per_device\":",
                "\"channel_bandwidth_gbps\": 32.0,",
            ),
            (
                "\"mcm_areal_gbps_per_mm2\":",
                "\"mcm_beachfront_gbps_per_mm\": 1.0, \"si_beachfront_gbps_per_mm\": 2.0,",
            ),
        ] {
            assert_eq!(json.matches(next_key).count(), 1, "{next_key}");
            json = json.replace(next_key, &format!("{removed} {next_key}"));
        }
        assert_eq!(from_json(&json).unwrap(), cfg);
    }

    #[test]
    fn json_rejects_invalid_config() {
        let mut cfg = wse_like(8).build().unwrap();
        cfg.noc.width_bits = 13; // invalid
        assert!(from_json(&to_json(&cfg)).is_err());
        assert!(from_json("not json").is_err());
    }
}
