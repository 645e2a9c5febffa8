//! Declarative experiment specifications.
//!
//! An [`ExperimentSpec`] is the paper's case-study workflow as data: a
//! base configuration, named *axes* of configuration overrides, a list of
//! applications and a list of datasets. Expanding the spec takes the
//! cartesian product of the axes and crosses it with datasets × apps,
//! yielding deterministic [`RunPoint`]s whose run IDs are stable across
//! invocations — the key to resumable sweeps.

use crate::error::DseError;
use crate::overrides::{apply_to_config, overrides_from_value, Override};
use muchisim_apps::Benchmark;
use muchisim_config::SystemConfig;
use muchisim_data::rmat::RmatConfig;
use muchisim_data::synthetic::{grid_2d, uniform_random};
use muchisim_data::Csr;
use serde::value::Value;
use std::collections::HashSet;

/// A dataset an experiment runs on, described by generator parameters so
/// it can be regenerated deterministically on any host.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum DatasetSpec {
    /// Graph500-style RMAT graph: `2^scale` vertices, `16·2^scale` edges.
    Rmat {
        /// log2 of the vertex count.
        scale: u32,
        /// Generator seed.
        seed: u64,
    },
    /// A 2D grid graph (the sparse-frontier extreme).
    Grid {
        /// Grid width in vertices.
        width: u32,
        /// Grid height in vertices.
        height: u32,
    },
    /// A uniformly random graph.
    Uniform {
        /// Vertex count.
        vertices: u32,
        /// Edge count.
        edges: u64,
        /// Generator seed.
        seed: u64,
    },
}

impl DatasetSpec {
    /// The dataset label used in reports (e.g. `"RMAT-11"`), following
    /// the paper's naming. Deliberately omits the seed — run identity
    /// uses an id that includes every generator parameter.
    pub fn label(&self) -> String {
        match self {
            DatasetSpec::Rmat { scale, .. } => format!("RMAT-{scale}"),
            DatasetSpec::Grid { width, height } => format!("GRID-{width}x{height}"),
            DatasetSpec::Uniform {
                vertices, edges, ..
            } => format!("UNI-{vertices}v{edges}e"),
        }
    }

    /// A fully discriminating identifier: every generator parameter,
    /// seed included, so two datasets differing only in seed never
    /// collide on run IDs (seed sweeps are a supported axis).
    pub(crate) fn id(&self) -> String {
        match self {
            DatasetSpec::Rmat { scale, seed } => format!("RMAT-{scale}-s{seed}"),
            DatasetSpec::Grid { width, height } => format!("GRID-{width}x{height}"),
            DatasetSpec::Uniform {
                vertices,
                edges,
                seed,
            } => format!("UNI-{vertices}v{edges}e-s{seed}"),
        }
    }

    /// Generates the dataset.
    pub(crate) fn generate(&self) -> Csr {
        match *self {
            DatasetSpec::Rmat { scale, seed } => RmatConfig::scale(scale).generate(seed),
            DatasetSpec::Grid { width, height } => grid_2d(width, height),
            DatasetSpec::Uniform {
                vertices,
                edges,
                seed,
            } => uniform_random(vertices, edges, seed),
        }
    }

    fn from_value(value: &Value) -> Result<Self, DseError> {
        let obj = value
            .as_object()
            .ok_or_else(|| spec_err("each dataset must be an object like {\"rmat\": {...}}"))?;
        if obj.len() != 1 {
            return Err(spec_err("a dataset object must have exactly one kind key"));
        }
        let (kind, body) = obj.iter().next().expect("len checked");
        let fields = body
            .as_object()
            .ok_or_else(|| spec_err(format!("dataset `{kind}` parameters must be an object")))?;
        match kind.as_str() {
            "rmat" => {
                reject_unknown_keys(fields, &["scale", "seed"], "dataset `rmat`")?;
                Ok(DatasetSpec::Rmat {
                    scale: field_u32(fields, "scale", kind)?,
                    seed: field_u64(fields, "seed", kind)?,
                })
            }
            "grid" => {
                reject_unknown_keys(fields, &["width", "height"], "dataset `grid`")?;
                Ok(DatasetSpec::Grid {
                    width: field_u32(fields, "width", kind)?,
                    height: field_u32(fields, "height", kind)?,
                })
            }
            "uniform" => {
                reject_unknown_keys(fields, &["vertices", "edges", "seed"], "dataset `uniform`")?;
                Ok(DatasetSpec::Uniform {
                    vertices: field_u32(fields, "vertices", kind)?,
                    edges: field_u64(fields, "edges", kind)?,
                    seed: field_u64(fields, "seed", kind)?,
                })
            }
            other => Err(spec_err(format!(
                "unknown dataset kind `{other}`; expected rmat, grid, or uniform"
            ))),
        }
    }
}

/// One labelled point on a sweep axis: the overrides it applies.
#[derive(Debug, Clone, PartialEq)]
pub struct AxisPoint {
    /// Human-readable label, used in report rows and run IDs (e.g.
    /// `"32T/Ch 1KiB"`).
    pub label: String,
    /// Configuration overrides this point applies.
    pub set: Vec<Override>,
}

/// A named sweep axis: a list of alternative configuration override sets.
#[derive(Debug, Clone, PartialEq)]
pub struct Axis {
    /// Axis name (documentation only; run IDs use point labels).
    pub name: String,
    /// The points along the axis, in sweep order.
    pub points: Vec<AxisPoint>,
}

/// A declarative design-space exploration: axes × datasets × apps.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentSpec {
    /// Experiment name (used for default store paths).
    pub name: String,
    /// Host threads each simulation uses.
    pub threads_per_run: usize,
    /// Overrides applied to [`SystemConfig::default`] before any axis.
    pub base: Vec<Override>,
    /// Sweep axes; their cartesian product forms the config points.
    pub axes: Vec<Axis>,
    /// Applications to run at every config point.
    pub apps: Vec<Benchmark>,
    /// Datasets to run every app on.
    pub datasets: Vec<DatasetSpec>,
}

/// One fully resolved simulation of a sweep: a configuration, an app and
/// a dataset, with a stable identity.
#[derive(Debug, Clone)]
pub struct RunPoint {
    /// Position in deterministic expansion order (report row order).
    pub order: u64,
    /// Stable ID: `slug(config_label)__APP__slug(dataset_id)`, where the
    /// dataset ID includes every generator parameter (seed included).
    /// Re-running a sweep skips IDs already present in the result store.
    pub run_id: String,
    /// Joined axis-point labels (the report's "config" column).
    pub config_label: String,
    /// The application.
    pub app: Benchmark,
    /// The dataset.
    pub dataset: DatasetSpec,
    /// The fully resolved, validated configuration.
    pub config: SystemConfig,
}

impl ExperimentSpec {
    /// Parses a spec from its JSON text.
    ///
    /// Required fields: `name`, `apps`, `datasets`. Optional: `base`
    /// (override set), `axes`, `threads_per_run` (default 1). Unknown
    /// top-level fields are rejected.
    ///
    /// # Errors
    ///
    /// Returns [`DseError::Spec`] describing the first problem found.
    pub fn from_json(text: &str) -> Result<Self, DseError> {
        let value: Value = serde_json::from_str(text)
            .map_err(|e| spec_err(format!("spec is not valid JSON: {e}")))?;
        Self::from_value(&value)
    }

    fn from_value(value: &Value) -> Result<Self, DseError> {
        let obj = value
            .as_object()
            .ok_or_else(|| spec_err("the spec must be a JSON object"))?;
        reject_unknown_keys(
            obj,
            &[
                "name",
                "threads_per_run",
                "base",
                "axes",
                "apps",
                "datasets",
            ],
            "the spec",
        )?;
        let name = obj
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| spec_err("missing required string field `name`"))?
            .to_string();
        let threads_per_run = match obj.get("threads_per_run") {
            None => 1,
            Some(v) => v
                .as_u64()
                .filter(|&n| n >= 1)
                .ok_or_else(|| spec_err("`threads_per_run` must be a positive integer"))?
                as usize,
        };
        let base = match obj.get("base") {
            None => Vec::new(),
            Some(v) => overrides_from_value(v)?,
        };
        let axes = match obj.get("axes") {
            None => Vec::new(),
            Some(Value::Array(items)) => items
                .iter()
                .map(axis_from_value)
                .collect::<Result<_, _>>()?,
            Some(other) => {
                return Err(spec_err(format!(
                    "`axes` must be an array, got {}",
                    other.kind()
                )))
            }
        };
        let apps = match obj.get("apps") {
            Some(Value::Array(items)) if !items.is_empty() => items
                .iter()
                .map(|item| {
                    let label = item
                        .as_str()
                        .ok_or_else(|| spec_err("`apps` entries must be strings"))?;
                    Benchmark::from_label(label).ok_or_else(|| {
                        spec_err(format!(
                            "unknown app `{label}`; choose one of: {}",
                            Benchmark::ALL.map(|b| b.label().to_lowercase()).join(", ")
                        ))
                    })
                })
                .collect::<Result<_, _>>()?,
            _ => return Err(spec_err("`apps` must be a non-empty array of app names")),
        };
        let datasets = match obj.get("datasets") {
            Some(Value::Array(items)) if !items.is_empty() => items
                .iter()
                .map(DatasetSpec::from_value)
                .collect::<Result<_, _>>()?,
            _ => return Err(spec_err("`datasets` must be a non-empty array")),
        };
        Ok(ExperimentSpec {
            name,
            threads_per_run,
            base,
            axes,
            apps,
            datasets,
        })
    }

    /// Expands the spec into deterministic [`RunPoint`]s: the cartesian
    /// product of the axes (first axis slowest), crossed with every
    /// dataset and app. All configurations are resolved and validated
    /// here, before anything runs.
    ///
    /// # Errors
    ///
    /// Returns [`DseError`] when an axis is empty, an override fails to
    /// apply, two points collide on the same run ID, or an app cannot run
    /// on its point's grid ([`Benchmark::grid_error`]).
    pub fn expand(&self) -> Result<Vec<RunPoint>, DseError> {
        for axis in &self.axes {
            if axis.points.is_empty() {
                return Err(spec_err(format!("axis `{}` has no points", axis.name)));
            }
        }
        let base_cfg = apply_to_config(&SystemConfig::default(), &self.base)?;
        let mut points = Vec::new();
        let mut seen = HashSet::new();
        for combo in cartesian(&self.axes) {
            let config_label = if combo.is_empty() {
                "base".to_string()
            } else {
                combo
                    .iter()
                    .map(|p| p.label.as_str())
                    .collect::<Vec<_>>()
                    .join(" ")
            };
            let mut cfg = base_cfg.clone();
            for point in &combo {
                cfg = apply_to_config(&cfg, &point.set).map_err(|e| {
                    DseError::Override(format!("at sweep point `{config_label}`: {e}"))
                })?;
            }
            for dataset in &self.datasets {
                for &app in &self.apps {
                    let run_id = format!(
                        "{}__{}__{}",
                        slug(&config_label),
                        app.label(),
                        slug(&dataset.id())
                    );
                    if !seen.insert(run_id.clone()) {
                        return Err(spec_err(format!(
                            "duplicate run ID `{run_id}`; axis point labels must be unique"
                        )));
                    }
                    if let Some(e) = app.grid_error(&cfg) {
                        return Err(spec_err(format!("point `{run_id}`: {e}")));
                    }
                    points.push(RunPoint {
                        order: points.len() as u64,
                        run_id,
                        config_label: config_label.clone(),
                        app,
                        dataset: dataset.clone(),
                        config: cfg.clone(),
                    });
                }
            }
        }
        Ok(points)
    }
}

/// All combinations of one point per axis, first axis varying slowest.
fn cartesian(axes: &[Axis]) -> Vec<Vec<&AxisPoint>> {
    let mut combos: Vec<Vec<&AxisPoint>> = vec![Vec::new()];
    for axis in axes {
        let mut next = Vec::with_capacity(combos.len() * axis.points.len());
        for prefix in &combos {
            for point in &axis.points {
                let mut combo = prefix.clone();
                combo.push(point);
                next.push(combo);
            }
        }
        combos = next;
    }
    combos
}

fn axis_from_value(value: &Value) -> Result<Axis, DseError> {
    let obj = value
        .as_object()
        .ok_or_else(|| spec_err("each axis must be an object"))?;
    reject_unknown_keys(obj, &["name", "points"], "each axis")?;
    let name = obj
        .get("name")
        .and_then(Value::as_str)
        .ok_or_else(|| spec_err("each axis needs a string `name`"))?
        .to_string();
    let Some(Value::Array(items)) = obj.get("points") else {
        return Err(spec_err(format!("axis `{name}` needs a `points` array")));
    };
    let points = items
        .iter()
        .map(|item| {
            let p = item
                .as_object()
                .ok_or_else(|| spec_err(format!("axis `{name}`: each point must be an object")))?;
            reject_unknown_keys(p, &["label", "set"], &format!("axis `{name}` points"))?;
            let label = p
                .get("label")
                .and_then(Value::as_str)
                .ok_or_else(|| spec_err(format!("axis `{name}`: each point needs a `label`")))?
                .to_string();
            let set = match p.get("set") {
                None => Vec::new(),
                Some(v) => overrides_from_value(v)?,
            };
            Ok(AxisPoint { label, set })
        })
        .collect::<Result<_, DseError>>()?;
    Ok(Axis { name, points })
}

/// Reduces a label to a filesystem/ID-safe slug (alphanumerics, `_` and
/// `-` kept, everything else mapped to `-`).
pub fn slug(label: &str) -> String {
    label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == '-' {
                c
            } else {
                '-'
            }
        })
        .collect()
}

fn spec_err(msg: impl Into<String>) -> DseError {
    DseError::Spec(msg.into())
}

fn field_u64(map: &serde::value::Map, field: &str, kind: &str) -> Result<u64, DseError> {
    map.get(field)
        .and_then(Value::as_u64)
        .ok_or_else(|| spec_err(format!("dataset `{kind}` needs integer field `{field}`")))
}

fn field_u32(map: &serde::value::Map, field: &str, kind: &str) -> Result<u32, DseError> {
    u32::try_from(field_u64(map, field, kind)?).map_err(|_| {
        spec_err(format!(
            "dataset `{kind}` field `{field}` is out of range for u32"
        ))
    })
}

/// Rejects keys of `map` not in `known`, naming `where_` in the error —
/// a typo like `"sets"` for `"set"` must fail loudly, not silently sweep
/// the base configuration under a label that claims otherwise.
fn reject_unknown_keys(
    map: &serde::value::Map,
    known: &[&str],
    where_: &str,
) -> Result<(), DseError> {
    for key in map.keys() {
        if !known.contains(&key.as_str()) {
            return Err(spec_err(format!(
                "unknown field `{key}` in {where_}; expected one of: {}",
                known.join(", ")
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"{
        "name": "demo",
        "threads_per_run": 2,
        "base": {"sram_kib_per_tile": 64},
        "axes": [
            {"name": "grid", "points": [
                {"label": "8x8", "set": ["hierarchy.chiplet.x=8", "hierarchy.chiplet.y=8"]},
                {"label": "16x16", "set": ["hierarchy.chiplet.x=16", "hierarchy.chiplet.y=16"]}
            ]},
            {"name": "noc", "points": [
                {"label": "64b", "set": {"noc.width_bits": 64}},
                {"label": "32b", "set": {"noc.width_bits": 32}}
            ]}
        ],
        "apps": ["bfs", "spmv"],
        "datasets": [{"rmat": {"scale": 6, "seed": 1}}]
    }"#;

    #[test]
    fn spec_parses_and_expands_deterministically() {
        let spec = ExperimentSpec::from_json(SPEC).unwrap();
        assert_eq!(spec.threads_per_run, 2);
        assert_eq!(spec.apps, vec![Benchmark::Bfs, Benchmark::Spmv]);
        let points = spec.expand().unwrap();
        // 2 grid x 2 noc x 1 dataset x 2 apps
        assert_eq!(points.len(), 8);
        // first axis slowest, apps innermost
        assert_eq!(points[0].config_label, "8x8 64b");
        assert_eq!(points[0].app, Benchmark::Bfs);
        assert_eq!(points[1].app, Benchmark::Spmv);
        assert_eq!(points[2].config_label, "8x8 32b");
        assert_eq!(points[4].config_label, "16x16 64b");
        assert_eq!(points[0].run_id, "8x8-64b__BFS__RMAT-6-s1");
        assert_eq!(points[0].config.total_tiles(), 64);
        assert_eq!(points[0].config.sram_kib_per_tile, 64);
        assert_eq!(points[2].config.noc.width_bits, 32);
        // expansion is deterministic
        let again = spec.expand().unwrap();
        assert_eq!(
            points.iter().map(|p| &p.run_id).collect::<Vec<_>>(),
            again.iter().map(|p| &p.run_id).collect::<Vec<_>>()
        );
    }

    #[test]
    fn axis_free_spec_gets_a_base_point() {
        let spec = ExperimentSpec::from_json(
            r#"{"name": "one", "apps": ["fft"],
                "base": ["hierarchy.chiplet.x=8", "hierarchy.chiplet.y=8"],
                "datasets": [{"grid": {"width": 4, "height": 4}}]}"#,
        )
        .unwrap();
        let points = spec.expand().unwrap();
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].config_label, "base");
        assert_eq!(points[0].dataset.label(), "GRID-4x4");
    }

    #[test]
    fn bad_specs_are_rejected_with_reasons() {
        for (text, needle) in [
            ("[]", "must be a JSON object"),
            (
                r#"{"apps": ["bfs"], "datasets": [{"rmat": {"scale": 5, "seed": 1}}]}"#,
                "`name`",
            ),
            (
                r#"{"name": "x", "apps": [], "datasets": [{"rmat": {"scale": 5, "seed": 1}}]}"#,
                "`apps`",
            ),
            (
                r#"{"name": "x", "apps": ["bogus"], "datasets": [{"rmat": {"scale": 5, "seed": 1}}]}"#,
                "unknown app",
            ),
            (
                r#"{"name": "x", "apps": ["bfs"], "datasets": []}"#,
                "`datasets`",
            ),
            (
                r#"{"name": "x", "apps": ["bfs"], "datasets": [{"csv": {}}]}"#,
                "unknown dataset kind",
            ),
            (
                r#"{"name": "x", "apps": ["bfs"], "datasets": [{"rmat": {"scale": 5, "seed": 1}}], "extra": 1}"#,
                "unknown field `extra` in the spec",
            ),
            (
                r#"{"name": "x", "apps": ["bfs"], "datasets": [{"rmat": {"scale": 5, "seed": 1}}], "axes": [{"name": "a", "points": []}]}"#,
                "has no points",
            ),
            // a typo'd `set` must not silently sweep the base config
            (
                r#"{"name": "x", "apps": ["bfs"], "datasets": [{"rmat": {"scale": 5, "seed": 1}}], "axes": [{"name": "a", "points": [{"label": "32b", "sets": ["noc.width_bits=32"]}]}]}"#,
                "unknown field `sets`",
            ),
            (
                r#"{"name": "x", "apps": ["bfs"], "datasets": [{"rmat": {"scale": 5, "seed": 1}}], "axes": [{"name": "a", "values": [], "points": [{"label": "p"}]}]}"#,
                "unknown field `values` in each axis",
            ),
            (
                r#"{"name": "x", "apps": ["bfs"], "datasets": [{"rmat": {"scale": 5, "seed": 1, "scal": 2}}]}"#,
                "unknown field `scal`",
            ),
            // out-of-range integers are rejected, not silently truncated
            (
                r#"{"name": "x", "apps": ["bfs"], "datasets": [{"rmat": {"scale": 4294967297, "seed": 1}}]}"#,
                "out of range",
            ),
            (
                r#"{"name": "x", "apps": ["bfs"], "datasets": [{"rmat": {"scale": 5, "seed": 1}}], "threads_per_run": 0}"#,
                "positive",
            ),
        ] {
            let err = ExperimentSpec::from_json(text).and_then(|s| s.expand());
            let msg = err.expect_err(text).to_string();
            assert!(
                msg.contains(needle),
                "`{text}` -> `{msg}` (wanted `{needle}`)"
            );
        }
    }

    #[test]
    fn an_app_is_refused_a_grid_it_cannot_run_on() {
        let spec = ExperimentSpec::from_json(
            r#"{"name": "fft-wide", "apps": ["fft", "bfs"],
                "base": {"hierarchy.chiplet.x": 8, "hierarchy.chiplet.y": 4},
                "datasets": [{"rmat": {"scale": 5, "seed": 1}}]}"#,
        )
        .unwrap();
        let err = spec.expand().unwrap_err();
        assert!(matches!(err, DseError::Spec(_)), "{err:?}");
        assert_eq!(
            err.to_string(),
            "invalid experiment spec: point `base__FFT__RMAT-5-s1`: a square grid is required by FFT, not 8x4"
        );
    }

    #[test]
    fn duplicate_labels_collide_on_run_id() {
        let spec = ExperimentSpec::from_json(
            r#"{"name": "dup", "apps": ["bfs"],
                "datasets": [{"rmat": {"scale": 5, "seed": 1}}],
                "axes": [{"name": "a", "points": [
                    {"label": "same"}, {"label": "same"}
                ]}]}"#,
        )
        .unwrap();
        let err = spec.expand().unwrap_err().to_string();
        assert!(err.contains("duplicate run ID"), "{err}");
    }

    #[test]
    fn seed_sweeps_get_distinct_run_ids() {
        // same scale, different seeds: labels coincide (paper naming)
        // but run identity must not
        let spec = ExperimentSpec::from_json(
            r#"{"name": "seeds", "apps": ["bfs"],
                "base": ["hierarchy.chiplet.x=4", "hierarchy.chiplet.y=4"],
                "datasets": [
                    {"rmat": {"scale": 6, "seed": 7}},
                    {"rmat": {"scale": 6, "seed": 8}}
                ]}"#,
        )
        .unwrap();
        let points = spec.expand().unwrap();
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].dataset.label(), points[1].dataset.label());
        assert_ne!(points[0].run_id, points[1].run_id);
        assert_eq!(points[0].run_id, "base__BFS__RMAT-6-s7");
        assert_eq!(points[1].run_id, "base__BFS__RMAT-6-s8");
    }

    #[test]
    fn slug_keeps_word_chars() {
        assert_eq!(slug("memory_design_space"), "memory_design_space");
        assert_eq!(slug("32T/Ch 1KiB"), "32T-Ch-1KiB");
    }

    #[test]
    fn datasets_generate_expected_shapes() {
        let rmat = DatasetSpec::Rmat { scale: 5, seed: 1 };
        assert_eq!(rmat.generate().num_vertices(), 32);
        assert_eq!(rmat.label(), "RMAT-5");
        let grid = DatasetSpec::Grid {
            width: 4,
            height: 3,
        };
        assert_eq!(grid.generate().num_vertices(), 12);
        let uni = DatasetSpec::Uniform {
            vertices: 10,
            edges: 20,
            seed: 2,
        };
        assert_eq!(uni.generate().num_vertices(), 10);
        assert_eq!(uni.generate().num_edges(), 20);
    }
}
