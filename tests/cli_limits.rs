//! Sizes beyond the simulator's 32-bit id space end in a typed error and
//! exit code 2 at the command line — not in a wrapped-to-zero grid that
//! panics in the dataset partitioner, nor in an allocation that aborts.

use std::process::Command;

fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_muchisim"))
        .args(args)
        .output()
        .expect("muchisim runs");
    assert!(out.stdout.is_empty(), "nothing is simulated: {out:?}");
    (
        out.status.code(),
        String::from_utf8(out.stderr).expect("utf-8 stderr"),
    )
}

fn assert_one_line_exit_2((code, stderr): (Option<i32>, String), needle: &str) {
    assert_eq!(code, Some(2), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.starts_with("error: "), "{stderr}");
    assert!(stderr.contains(needle), "{stderr}");
}

#[test]
fn a_grid_of_2_pow_32_tiles_is_rejected_not_wrapped_to_zero() {
    assert_one_line_exit_2(
        run(&["run", "bfs", "5", "65536", "1"]),
        "the tile grid (width x height) exceeds the supported maximum of 330382099",
    );
}

#[test]
fn hierarchy_overrides_beyond_u32_are_rejected_before_allocating() {
    assert_one_line_exit_2(
        run(&[
            "run",
            "bfs",
            "5",
            "8",
            "1",
            "--set",
            "hierarchy.package.x=1000000",
            "--set",
            "hierarchy.node.x=1000000",
        ]),
        "the tile grid (width x height) exceeds the supported maximum",
    );
}

#[test]
fn a_buffer_depth_that_would_reach_the_credit_flag_is_rejected() {
    assert_one_line_exit_2(
        run(&[
            "run",
            "bfs",
            "5",
            "8",
            "1",
            "--set",
            "noc.buffer_depth=2147483648",
        ]),
        "noc.buffer_depth exceeds the supported maximum of 2147418112",
    );
}

#[test]
fn the_removed_config_keys_are_unknown_parameters() {
    for assignment in [
        "frame_budget=64",
        "frame_spill=/tmp/frames.jsonl",
        "active_list=false",
        "inter_node_link_mux=2",
        r#"noc.reduction_tree={"subtree_width":8}"#,
        "params.sram.bank_kib=64",
    ] {
        let (code, stderr) = run(&["run", "bfs", "5", "8", "1", "--set", assignment]);
        assert_eq!(code, Some(2), "{stderr}");
        // a nested path is reported by its last segment
        let path = assignment.split('=').next().expect("a key");
        let key = path.rsplit('.').next().expect("a segment");
        assert!(
            stderr.starts_with("error: ") && stderr.contains(&format!("unknown parameter `{key}`")),
            "{stderr}"
        );
    }
}
