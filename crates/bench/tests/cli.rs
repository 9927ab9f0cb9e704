//! `repro` rejects what it does not run: an unknown subcommand or option
//! (a typo, or a script still naming a removed one) prints the usage text
//! and exits 2 instead of running nothing, or the wrong thing, and exiting 0.

use std::process::Command;

#[test]
fn unknown_subcommands_exit_2_with_usage() {
    for sub in ["recovery-rt", "blackbox", "cluster-smoke", "fig12"] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro")).arg(sub).output().expect("repro runs");
        assert_eq!(out.status.code(), Some(2), "repro {sub}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: repro"), "repro {sub} printed no usage: {stderr}");
        assert!(out.stdout.is_empty(), "repro {sub} ran something");
    }
}

#[test]
fn unknown_options_exit_2_with_usage() {
    // `--metrics` was removed; `--quikc` is a typo of `--quick` that would
    // otherwise run the full-scale experiment.
    for args in [&["droplet", "--metrics", "x.prom"][..], &["fig6", "--quikc"][..]] {
        let out =
            Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("repro runs");
        assert_eq!(out.status.code(), Some(2), "repro {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: repro"), "repro {args:?} printed no usage: {stderr}");
        assert!(out.stdout.is_empty(), "repro {args:?} ran something");
    }
}

#[test]
fn a_missing_trace_file_or_an_extra_positional_exits_2_with_usage() {
    // `--trace --quick` took `--quick` as the trace path and ran at full
    // scale; a bare `--trace` wrote nothing; `table2 fig3` ran only table2.
    for args in
        [&["table2", "--trace", "--quick"][..], &["table2", "--trace"][..], &["table2", "fig3"][..]]
    {
        let out =
            Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("repro runs");
        assert_eq!(out.status.code(), Some(2), "repro {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: repro"), "repro {args:?} printed no usage: {stderr}");
        assert!(out.stdout.is_empty(), "repro {args:?} ran something");
    }
}
