//! End-to-end tests of the `prsim` binary: generate → stats → build →
//! query → pair workflows through the real CLI surface.

use std::path::PathBuf;
use std::process::{Command, Output};

fn prsim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_prsim"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("prsim_cli_test_{name}"));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).to_string()
}

fn stderr(o: &Output) -> String {
    String::from_utf8_lossy(&o.stderr).to_string()
}

#[test]
fn no_args_prints_usage_and_fails() {
    let out = prsim(&[]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("USAGE"));
}

#[test]
fn help_succeeds() {
    let out = prsim(&["help"]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("prsim generate"));
}

#[test]
fn unknown_command_fails() {
    let out = prsim(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown command"));
}

#[test]
fn generate_stats_round_trip() {
    let dir = tmpdir("gen");
    let graph = dir.join("g.bin");
    let out = prsim(&[
        "generate",
        "chung-lu",
        "--n",
        "500",
        "--avg-degree",
        "6",
        "--gamma",
        "2.0",
        "--seed",
        "7",
        "--out",
        graph.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("500 nodes"));

    let out = prsim(&["stats", graph.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("nodes      : 500"));
    assert!(text.contains("out-degree"));
}

#[test]
fn convert_text_binary() {
    let dir = tmpdir("convert");
    let txt = dir.join("g.txt");
    let bin = dir.join("g.bin");
    std::fs::write(&txt, "0 1\n1 2\n2 0\n").unwrap();
    let out = prsim(&["convert", txt.to_str().unwrap(), bin.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    let out = prsim(&["stats", bin.to_str().unwrap()]);
    assert!(stdout(&out).contains("edges      : 3"));
}

#[test]
fn build_then_query_with_index() {
    let dir = tmpdir("build_query");
    let graph = dir.join("g.bin");
    let sorted = dir.join("g_sorted.bin");
    let index = dir.join("g.prsimix");
    assert!(prsim(&[
        "generate",
        "chung-lu",
        "--n",
        "400",
        "--seed",
        "3",
        "--out",
        graph.to_str().unwrap(),
    ])
    .status
    .success());

    let out = prsim(&[
        "build",
        graph.to_str().unwrap(),
        "--index",
        index.to_str().unwrap(),
        "--eps",
        "0.1",
        "--sorted-out",
        sorted.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("built index"));
    assert!(index.exists() && sorted.exists());

    // Query against the persisted index + sorted graph.
    let out = prsim(&[
        "query",
        sorted.to_str().unwrap(),
        "--index",
        index.to_str().unwrap(),
        "--source",
        "0",
        "--top",
        "5",
        "--eps",
        "0.1",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("query node 0"));
    assert!(text.lines().filter(|l| l.contains('.')).count() >= 2);

    // Index-free query works too.
    let out = prsim(&[
        "query",
        graph.to_str().unwrap(),
        "--source",
        "1",
        "--top",
        "3",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
}

#[test]
fn f32_reserve_index_builds_smaller_and_queries() {
    let dir = tmpdir("f32_build");
    let graph = dir.join("g.bin");
    let wide = dir.join("g_f64.prsimix");
    let narrow = dir.join("g_f32.prsimix");
    assert!(prsim(&[
        "generate",
        "chung-lu",
        "--n",
        "400",
        "--seed",
        "3",
        "--out",
        graph.to_str().unwrap(),
    ])
    .status
    .success());

    let base = ["build", graph.to_str().unwrap(), "--eps", "0.1"];
    let out = prsim(&[&base[..], &["--index", wide.to_str().unwrap()]].concat());
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("(f64)"));
    let out = prsim(
        &[
            &base[..],
            &["--index", narrow.to_str().unwrap(), "--f32-reserves"],
        ]
        .concat(),
    );
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("(f32)"));

    // The serialized f32 arena is materially smaller than the f64 one.
    let wide_len = std::fs::metadata(&wide).unwrap().len();
    let narrow_len = std::fs::metadata(&narrow).unwrap().len();
    assert!(
        (narrow_len as f64) < 0.8 * wide_len as f64,
        "f32 index {narrow_len} bytes vs f64 {wide_len} bytes"
    );

    // And the f32 index answers queries (precision is self-described).
    let out = prsim(&[
        "query",
        graph.to_str().unwrap(),
        "--index",
        narrow.to_str().unwrap(),
        "--source",
        "0",
        "--top",
        "5",
        "--eps",
        "0.1",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("query node 0"));
}

#[test]
fn topk_command_works() {
    let dir = tmpdir("topk");
    let graph = dir.join("g.bin");
    assert!(prsim(&[
        "generate",
        "chung-lu",
        "--n",
        "300",
        "--seed",
        "5",
        "--out",
        graph.to_str().unwrap(),
    ])
    .status
    .success());
    let out = prsim(&[
        "topk",
        graph.to_str().unwrap(),
        "--source",
        "0",
        "--k",
        "5",
        "--eps",
        "0.1",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("top-5 of node 0"));
    assert!(text.contains("samples"));
}

#[test]
fn pair_estimates_known_value() {
    let dir = tmpdir("pair");
    let graph = dir.join("star.txt");
    // star_out over 6 nodes: s(1,2) = c = 0.6.
    let mut text = String::new();
    for leaf in 1..6 {
        text.push_str(&format!("0 {leaf}\n"));
    }
    std::fs::write(&graph, text).unwrap();
    let out = prsim(&[
        "pair",
        graph.to_str().unwrap(),
        "--u",
        "1",
        "--v",
        "2",
        "--samples",
        "40000",
        "--seed",
        "1",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let line = stdout(&out);
    let value: f64 = line
        .split('≈')
        .nth(1)
        .and_then(|s| s.split_whitespace().next())
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("cannot parse output {line:?}"));
    assert!((value - 0.6).abs() < 0.02, "s(1,2) = {value}");
}

#[test]
fn query_rejects_out_of_range_source() {
    let dir = tmpdir("range");
    let graph = dir.join("g.txt");
    std::fs::write(&graph, "0 1\n1 0\n").unwrap();
    let out = prsim(&["query", graph.to_str().unwrap(), "--source", "99"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("out of range"));
}

#[test]
fn generate_all_models() {
    let dir = tmpdir("models");
    for (model, extra) in [
        (
            "chung-lu-directed",
            vec!["--n", "200", "--gamma", "1.8", "--gamma-in", "2.4"],
        ),
        ("ba", vec!["--n", "200", "--m-attach", "3"]),
        ("er", vec!["--n", "200", "--avg-degree", "5"]),
        (
            "sbm",
            vec![
                "--communities",
                "5",
                "--size",
                "20",
                "--p-in",
                "0.3",
                "--p-out",
                "0.01",
            ],
        ),
    ] {
        let path = dir.join(format!("{model}.bin"));
        let mut args = vec!["generate", model];
        args.extend(extra);
        args.extend(["--out", path.to_str().unwrap()]);
        let out = prsim(&args);
        assert!(out.status.success(), "{model}: {}", stderr(&out));
        assert!(prsim(&["stats", path.to_str().unwrap()]).status.success());
    }
}

#[test]
fn generate_rejects_out_of_domain_chung_lu_parameters() {
    let dir = tmpdir("gen_invalid");
    let graph = dir.join("g.txt");
    let out_path = graph.to_str().unwrap();
    let cases: &[(&[&str], &str)] = &[
        (&["chung-lu", "--n", "0"], "n must be positive, got 0"),
        (
            &["chung-lu", "--n", "50", "--avg-degree", "0"],
            "avg_degree must be finite and positive, got 0",
        ),
        (
            &["chung-lu", "--n", "50", "--gamma", "0"],
            "gamma must be positive, got 0",
        ),
        (
            &["chung-lu-directed", "--n", "50", "--gamma-in", "0"],
            "gamma_in must be positive, got 0",
        ),
        (
            &["ba", "--n", "0"],
            "n must be greater than m_attach, got 0",
        ),
        // The CLI targets p = avg-degree / (n - 1): 10 at n = 2.
        (&["er", "--n", "2"], "p must be in [0, 1], got 10"),
        (
            &["sbm", "--communities", "0", "--size", "5"],
            "communities must be positive, got 0",
        ),
    ];
    for (params, message) in cases {
        let mut args = vec!["generate"];
        args.extend_from_slice(params);
        args.extend_from_slice(&["--out", out_path]);
        let out = prsim(&args);
        let err = stderr(&out);
        // A usage error, not a panic (which exits 101).
        assert_eq!(out.status.code(), Some(1), "{params:?}: {err}");
        assert_eq!(err.lines().count(), 1, "{params:?}: one line, got {err:?}");
        assert!(err.contains(message), "{params:?}: {err}");
        assert!(!graph.exists(), "{params:?}: no output on a usage error");
    }
}

#[test]
fn corrupt_index_is_reported_not_panicked() {
    let dir = tmpdir("corrupt");
    let graph = dir.join("g.txt");
    std::fs::write(&graph, "0 1\n1 2\n2 0\n").unwrap();
    let index = dir.join("bad.prsimix");
    std::fs::write(&index, b"not an index at all").unwrap();
    let out = prsim(&[
        "query",
        graph.to_str().unwrap(),
        "--index",
        index.to_str().unwrap(),
        "--source",
        "0",
    ]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("corrupt"), "{}", stderr(&out));
}

#[test]
fn update_replays_stream_incrementally() {
    let dir = tmpdir("update_inc");
    let graph = dir.join("g.txt");
    let out_graph = dir.join("g_after.txt");
    std::fs::write(&graph, "0 1\n1 2\n2 3\n3 4\n4 0\n").unwrap();
    let stream = dir.join("updates.txt");
    std::fs::write(&stream, "# grow then shrink\n+ 0 3\n+ 4 1\n- 1 2\n+ 4 1\n").unwrap();
    let out = prsim(&[
        "update",
        graph.to_str().unwrap(),
        "--stream",
        stream.to_str().unwrap(),
        "--probe",
        "0",
        "--out",
        out_graph.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("updates/s"), "{text}");
    assert!(text.contains("3 applied, 1 no-ops"), "{text}");
    assert!(text.contains("probe node 0"), "{text}");
    assert!(text.contains("6 edges"), "{text}");
    // The written graph reflects the replayed stream.
    let after = std::fs::read_to_string(&out_graph).unwrap();
    let mut lines: Vec<&str> = after.lines().collect();
    lines.sort_unstable();
    assert_eq!(lines, vec!["0 1", "0 3", "2 3", "3 4", "4 0", "4 1"]);
}

#[test]
fn update_rebuild_mode_batches() {
    let dir = tmpdir("update_reb");
    let graph = dir.join("g.txt");
    std::fs::write(&graph, "0 1\n1 2\n2 0\n").unwrap();
    let stream = dir.join("updates.txt");
    std::fs::write(&stream, "+ 0 2\n+ 1 0\n").unwrap();
    let out = prsim(&[
        "update",
        graph.to_str().unwrap(),
        "--stream",
        stream.to_str().unwrap(),
        "--mode",
        "rebuild",
        "--batch",
        "2",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("2 applied"), "{text}");
    // 2 applied updates at batch 2 = exactly one replay rebuild (the
    // initial build is charged to build time, not the replay).
    assert!(text.contains("1 rebuilds"), "{text}");
}

#[test]
fn update_rejects_mode_inapplicable_flags() {
    let dir = tmpdir("update_flags");
    let graph = dir.join("g.txt");
    std::fs::write(&graph, "0 1\n1 0\n").unwrap();
    let stream = dir.join("updates.txt");
    std::fs::write(&stream, "+ 0 1\n").unwrap();
    let g = graph.to_str().unwrap();
    let s = stream.to_str().unwrap();
    let out = prsim(&["update", g, "--stream", s, "--batch", "4"]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("--batch only applies"),
        "{}",
        stderr(&out)
    );
    let out = prsim(&[
        "update",
        g,
        "--stream",
        s,
        "--mode",
        "rebuild",
        "--drift-budget",
        "0.1",
    ]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("--drift-budget only applies"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn update_reports_malformed_stream_with_line() {
    let dir = tmpdir("update_bad");
    let graph = dir.join("g.txt");
    std::fs::write(&graph, "0 1\n").unwrap();
    let stream = dir.join("updates.txt");
    std::fs::write(&stream, "+ 0 1\n? 1 2\n").unwrap();
    let out = prsim(&[
        "update",
        graph.to_str().unwrap(),
        "--stream",
        stream.to_str().unwrap(),
    ]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("line 2"), "{err}");
    assert!(err.contains("\"?\""), "{err}");
}

#[test]
fn walk_cache_flags_control_the_cache() {
    let dir = tmpdir("walk_cache");
    let graph = dir.join("g.txt");
    std::fs::write(&graph, "0 1\n1 2\n2 0\n0 2\n2 1\n").unwrap();
    // Explicit budget and disabled cache both answer successfully.
    for extra in [&["--walk-cache", "2"][..], &["--no-walk-cache"][..]] {
        let mut args = vec![
            "query",
            graph.to_str().unwrap(),
            "--source",
            "0",
            "--seed",
            "1",
            "--top",
            "3",
        ];
        args.extend_from_slice(extra);
        let out = prsim(&args);
        assert!(out.status.success(), "{:?}: {}", extra, stderr(&out));
        assert!(stdout(&out).contains("query node 0"));
    }
    // The two flags conflict.
    let out = prsim(&[
        "query",
        graph.to_str().unwrap(),
        "--source",
        "0",
        "--walk-cache",
        "4",
        "--no-walk-cache",
    ]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("mutually exclusive"),
        "{}",
        stderr(&out)
    );
    // A budget over the validation ceiling is rejected by the engine.
    let out = prsim(&[
        "query",
        graph.to_str().unwrap(),
        "--source",
        "0",
        "--walk-cache",
        "99999999",
    ]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("walk_cache_budget"),
        "{}",
        stderr(&out)
    );
}
