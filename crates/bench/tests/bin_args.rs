//! The harness binaries take their parameters from `HIPER_*` variables, so
//! a flag they do not know must stop them with exit code 2 instead of
//! silently running the default experiment.

use std::process::Command;

fn assert_rejects(bin: &str, exe: &str, args: &[&str]) {
    let out = Command::new(exe)
        .args(args)
        .env("HIPER_NODES_MAX", "1")
        .env("HIPER_REPS", "1")
        .output()
        .unwrap_or_else(|e| panic!("{bin}: cannot start: {e}"));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.code() == Some(2) && stderr.contains("unknown"),
        "{bin} {args:?} was not refused ({}):\n{stderr}",
        out.status
    );
}

#[test]
fn figure_bins_refuse_unknown_flags() {
    for (bin, exe) in [
        ("fig4_hpgmg", env!("CARGO_BIN_EXE_fig4_hpgmg")),
        ("fig5_isx", env!("CARGO_BIN_EXE_fig5_isx")),
        ("fig6_geo", env!("CARGO_BIN_EXE_fig6_geo")),
        ("graph500", env!("CARGO_BIN_EXE_graph500")),
        ("fig7_uts", env!("CARGO_BIN_EXE_fig7_uts")),
    ] {
        assert_rejects(bin, exe, &["--nodes", "4"]);
    }
}

#[test]
fn profile_refuses_the_diff_flags() {
    // A readable trace, so the refusal cannot come from a missing file.
    let trace = std::env::temp_dir().join(format!("hiper_bin_args_{}.json", std::process::id()));
    std::fs::write(&trace, r#"{"traceEvents":[]}"#).expect("write the trace");
    let t = trace.to_str().unwrap();
    let exe = env!("CARGO_BIN_EXE_profile");
    assert_rejects("profile", exe, &["--diff", t, t]);
    assert_rejects("profile", exe, &[t, "--top", "3"]);
    std::fs::remove_file(&trace).ok();
}
