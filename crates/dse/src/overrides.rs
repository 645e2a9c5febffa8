//! String-keyed configuration overrides.
//!
//! A sweep axis perturbs a [`SystemConfig`] through *assignments* like
//! `sram_kib_per_tile=64` or `noc.width_bits=32`: a dot-separated path
//! into the config's serialized field tree and a JSON value. The same
//! mechanism backs JSON spec files (where an override set is an object
//! mapping paths to values) and CLI `--set` flags (where it is the
//! `key=value` string form), so every parameter that serde can see is
//! sweepable without bespoke builder code.
//!
//! Paths are validated against the actual field tree: assigning to a key
//! that does not exist is an error (with the available keys listed), not
//! a silent no-op, and the rebuilt configuration is re-validated by
//! [`SystemConfig::validate`].

use crate::error::DseError;
use muchisim_config::SystemConfig;
use serde::value::Value;
use serde::{Deserialize, Serialize};

/// One parameter override: a dot-separated field path and the JSON value
/// to store there.
pub type Override = (String, Value);

/// Parses `key=value` into an [`Override`].
///
/// The value is interpreted as JSON when it parses as JSON (`64`, `true`,
/// `[1,0]`, `{"Dram":{...}}`) and as a bare string otherwise (`Mesh`,
/// `Scratchpad`), so enum variant names do not need shell-hostile quotes.
///
/// # Errors
///
/// Returns [`DseError::Override`] when the `key=` part is missing or
/// empty.
pub fn parse_assignment(text: &str) -> Result<Override, DseError> {
    let Some((key, value)) = text.split_once('=') else {
        return Err(DseError::Override(format!(
            "`{text}` is not of the form key=value"
        )));
    };
    let key = key.trim();
    if key.is_empty() {
        return Err(DseError::Override(format!("`{text}` has an empty key")));
    }
    Ok((key.to_string(), parse_json_or_string(value.trim())))
}

/// Parses `text` as a JSON value, falling back to a plain string.
pub(crate) fn parse_json_or_string(text: &str) -> Value {
    serde_json::from_str::<Value>(text).unwrap_or_else(|_| Value::String(text.to_string()))
}

/// Converts a spec-file override set into a list of [`Override`]s.
///
/// Accepts either an array of `"key=value"` strings or an object whose
/// keys are dot-separated paths (`{"sram_kib_per_tile": 64}`); `null`
/// means no overrides.
///
/// # Errors
///
/// Returns [`DseError::Override`] for any other JSON shape or an
/// unparseable assignment string.
pub(crate) fn overrides_from_value(value: &Value) -> Result<Vec<Override>, DseError> {
    match value {
        Value::Null => Ok(Vec::new()),
        Value::Array(items) => items
            .iter()
            .map(|item| match item {
                Value::String(s) => parse_assignment(s),
                other => Err(DseError::Override(format!(
                    "override list entries must be \"key=value\" strings, got {}",
                    other.kind()
                ))),
            })
            .collect(),
        Value::Object(map) => Ok(map.iter().map(|(k, v)| (k.clone(), v.clone())).collect()),
        other => Err(DseError::Override(format!(
            "an override set must be an array of \"key=value\" strings or an object, got {}",
            other.kind()
        ))),
    }
}

/// Applies `overrides` to `cfg`, returning the rebuilt, re-validated
/// configuration.
///
/// # Errors
///
/// Returns [`DseError::Override`] for unknown paths or type-mismatched
/// values — a mismatch names the override that breaks the config, as
/// `` `key=token`: … `` — and [`DseError::Config`] when the resulting
/// configuration fails validation.
pub fn apply_to_config(
    cfg: &SystemConfig,
    overrides: &[Override],
) -> Result<SystemConfig, DseError> {
    let mut tree = cfg.to_value();
    for (path, value) in overrides {
        set_path(&mut tree, path, value.clone())?;
    }
    let rebuilt = SystemConfig::from_value(&tree).map_err(|e| {
        DseError::Override(match first_breaking(cfg, overrides) {
            Some(((path, value), e)) => format!("`{path}={}`: {e}", token(value)),
            None => format!("overridden config does not deserialize: {e}"),
        })
    })?;
    rebuilt.validate()?;
    Ok(rebuilt)
}

/// The first override after which `cfg` no longer deserializes, with the
/// error, applying them in order and skipping each that a later one
/// assigns again (its value never reaches the config).
fn first_breaking<'o>(
    cfg: &SystemConfig,
    overrides: &'o [Override],
) -> Option<(&'o Override, String)> {
    let mut tree = cfg.to_value();
    overrides.iter().enumerate().find_map(|(i, o)| {
        if overrides[i + 1..].iter().any(|later| later.0 == o.0) {
            return None;
        }
        set_path(&mut tree, &o.0, o.1.clone()).ok()?;
        let e = SystemConfig::from_value(&tree).err()?;
        Some((o, e.to_string()))
    })
}

/// `value` as it was written: a string bare, anything else as JSON.
fn token(value: &Value) -> String {
    match value {
        Value::String(s) => s.clone(),
        other => serde_json::to_string(other).unwrap_or_else(|_| other.kind().to_string()),
    }
}

/// Stores `value` at the dot-separated `path` inside `root`, rejecting
/// paths that do not name an existing field.
fn set_path(root: &mut Value, path: &str, value: Value) -> Result<(), DseError> {
    let parts: Vec<&str> = path.split('.').collect();
    if parts.iter().any(|p| p.is_empty()) {
        return Err(DseError::Override(format!("`{path}` has an empty segment")));
    }
    let (last, dirs) = parts.split_last().expect("split produces >= 1 part");
    let mut cursor = root;
    for (i, part) in dirs.iter().enumerate() {
        cursor = descend(cursor, part, &parts[..=i], path)?;
    }
    let Value::Object(map) = cursor else {
        return Err(DseError::Override(format!(
            "`{}` is not a parameter object (while setting `{path}`)",
            dirs.join(".")
        )));
    };
    let Some(slot) = map.get_mut(last) else {
        return Err(unknown_key(map, last, path));
    };
    *slot = value;
    Ok(())
}

fn descend<'a>(
    cursor: &'a mut Value,
    part: &str,
    walked: &[&str],
    path: &str,
) -> Result<&'a mut Value, DseError> {
    let Value::Object(map) = cursor else {
        return Err(DseError::Override(format!(
            "`{}` is not a parameter object (while setting `{path}`); \
             assign a whole JSON value to it instead",
            walked[..walked.len() - 1].join(".")
        )));
    };
    if map.get(part).is_none() {
        return Err(unknown_key(map, part, path));
    }
    Ok(map.get_mut(part).expect("presence just checked"))
}

fn unknown_key(map: &serde::value::Map, key: &str, path: &str) -> DseError {
    let known: Vec<&str> = map.keys().map(String::as_str).collect();
    DseError::Override(format!(
        "unknown parameter `{key}` in `{path}`; known keys here: {}",
        known.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use muchisim_config::{DramConfig, MemoryConfig, NocTopology, SchedulingPolicy};

    #[test]
    fn assignment_parses_numbers_strings_and_json() {
        let (k, v) = parse_assignment("sram_kib_per_tile=64").unwrap();
        assert_eq!(k, "sram_kib_per_tile");
        assert_eq!(v.as_u64(), Some(64));
        let (_, v) = parse_assignment("noc.topology=FoldedTorus").unwrap();
        assert_eq!(v.as_str(), Some("FoldedTorus"));
        let (_, v) = parse_assignment("time_leap=false").unwrap();
        assert_eq!(v, Value::Bool(false));
        let (_, v) = parse_assignment("scheduling={\"Priority\": [1, 0]}").unwrap();
        assert!(v.as_object().is_some());
        assert!(parse_assignment("no_equals_sign").is_err());
        assert!(parse_assignment("=64").is_err());
    }

    #[test]
    fn overrides_change_nested_fields() {
        let cfg = SystemConfig::default();
        let out = apply_to_config(
            &cfg,
            &[
                parse_assignment("sram_kib_per_tile=64").unwrap(),
                parse_assignment("noc.width_bits=32").unwrap(),
                parse_assignment("noc.topology=FoldedTorus").unwrap(),
                parse_assignment("hierarchy.chiplet.x=16").unwrap(),
                parse_assignment("hierarchy.chiplet.y=16").unwrap(),
                parse_assignment("params.cost.hbm_usd_per_gb=3.0").unwrap(),
            ],
        )
        .unwrap();
        assert_eq!(out.sram_kib_per_tile, 64);
        assert_eq!(out.noc.width_bits, 32);
        assert_eq!(out.noc.topology, NocTopology::FoldedTorus);
        assert_eq!(out.total_tiles(), 256);
        assert_eq!(out.params.cost.hbm_usd_per_gb, 3.0);
        // untouched fields keep their defaults
        assert_eq!(out.queues, cfg.queues);
    }

    #[test]
    fn enum_variants_assign_by_name_or_json() {
        let cfg = SystemConfig::default();
        let dram = serde::Serialize::to_value(&MemoryConfig::Dram(DramConfig::default()));
        let out = apply_to_config(&cfg, &[("memory".to_string(), dram)]).unwrap();
        assert!(out.memory.has_dram());
        // ...and back to the unit variant by bare name
        let out2 =
            apply_to_config(&out, &[parse_assignment("memory=Scratchpad").unwrap()]).unwrap();
        assert_eq!(out2.memory, MemoryConfig::Scratchpad);
        // tuple variant through JSON
        let out3 = apply_to_config(
            &cfg,
            &[parse_assignment("scheduling={\"Priority\": [1, 0]}").unwrap()],
        )
        .unwrap();
        assert_eq!(out3.scheduling, SchedulingPolicy::Priority(vec![1, 0]));
    }

    #[test]
    fn unknown_keys_rejected_at_every_depth() {
        let cfg = SystemConfig::default();
        let top = apply_to_config(&cfg, &[parse_assignment("sram_kb=1").unwrap()]);
        assert!(matches!(top, Err(DseError::Override(_))), "{top:?}");
        let msg = top.unwrap_err().to_string();
        assert!(msg.contains("unknown parameter `sram_kb`"), "{msg}");
        assert!(
            msg.contains("sram_kib_per_tile"),
            "should list known keys: {msg}"
        );
        let nested = apply_to_config(&cfg, &[parse_assignment("noc.width=32").unwrap()]);
        assert!(nested.is_err());
        let deep = apply_to_config(&cfg, &[parse_assignment("params.nope.x=1").unwrap()]);
        assert!(deep.is_err());
    }

    #[test]
    fn type_mismatch_and_invalid_configs_rejected() {
        let cfg = SystemConfig::default();
        let bad_type =
            apply_to_config(&cfg, &[parse_assignment("sram_kib_per_tile=lots").unwrap()]);
        assert!(
            matches!(bad_type, Err(DseError::Override(_))),
            "{bad_type:?}"
        );
        // the error names the override that breaks the config, not one
        // overwritten later nor a well-typed one around it
        let named = |sets: &[&str]| {
            let sets: Vec<Override> = sets.iter().map(|s| parse_assignment(s).unwrap()).collect();
            apply_to_config(&cfg, &sets).unwrap_err().to_string()
        };
        assert_eq!(
            named(&["sram_kib_per_tile=64", "noc.width_bits=[1, 2]"]),
            "invalid parameter override: `noc.width_bits=[1,2]`: expected u32, got array"
        );
        assert_eq!(
            named(&[
                "sram_kib_per_tile=lots",
                "pus_per_tile=x",
                "sram_kib_per_tile=64"
            ]),
            "invalid parameter override: `pus_per_tile=x`: expected u32, got string"
        );
        // deserializes fine but fails validation (width not multiple of 8)
        let invalid = apply_to_config(&cfg, &[parse_assignment("noc.width_bits=12").unwrap()]);
        assert!(matches!(invalid, Err(DseError::Config(_))), "{invalid:?}");
    }

    #[test]
    fn builder_json_override_round_trip_stays_equal() {
        // builder -> JSON -> deserialize -> equal, and an override pass
        // with no overrides is the identity
        let cfg = SystemConfig::builder()
            .chiplet_tiles(8, 8)
            .package_chiplets(2, 2)
            .sram_kib_per_tile(64)
            .dram(DramConfig::default())
            .build()
            .unwrap();
        let json = serde_json::to_string_pretty(&cfg).unwrap();
        let back: SystemConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(cfg, back);
        assert_eq!(apply_to_config(&cfg, &[]).unwrap(), cfg);
    }

    #[test]
    fn override_set_shapes() {
        let from_list: Value =
            serde_json::from_str(r#"["sram_kib_per_tile=8", "noc.width_bits=32"]"#).unwrap();
        let ovs = overrides_from_value(&from_list).unwrap();
        assert_eq!(ovs.len(), 2);
        let from_obj: Value =
            serde_json::from_str(r#"{"sram_kib_per_tile": 8, "noc.width_bits": 32}"#).unwrap();
        let ovs2 = overrides_from_value(&from_obj).unwrap();
        assert_eq!(ovs, ovs2);
        assert!(overrides_from_value(&Value::Bool(true)).is_err());
        assert_eq!(overrides_from_value(&Value::Null).unwrap(), Vec::new());
    }
}
