//! The `clanbft-inspect` binary end to end over the fixture trace and
//! profile: every subcommand exits 0 with output, `check` exits 1 on a
//! violating trace, a malformed invocation exits non-zero, and a path of
//! `-` reads stdin.

use std::io::Write as _;
use std::process::{Command, Output, Stdio};

const TRACE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/trace_4p_3r.ndjson"
);
const PROFILE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/profile.ndjson");

/// Runs the binary with `args` and `stdin` on its standard input.
fn inspect(args: &[&str], stdin: &str) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_clanbft-inspect"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("clanbft-inspect starts");
    // A command that never reads stdin may exit before the write lands.
    let _ = child
        .stdin
        .take()
        .expect("piped")
        .write_all(stdin.as_bytes());
    child.wait_with_output().expect("clanbft-inspect exits")
}

#[test]
fn every_subcommand_succeeds_with_output() {
    for args in [
        &["waterfall", TRACE][..],
        &["health", TRACE],
        &["incidents", TRACE],
        &["alerts", TRACE],
        &["check", TRACE],
        &["dot", TRACE, "--rounds", "1..2"],
        &["ascii", TRACE],
        &["diff", TRACE, TRACE],
        &["profile", PROFILE],
        &["profile", "--diff", PROFILE, PROFILE],
    ] {
        let out = inspect(args, "");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args:?}: {}\n{stderr}", out.status);
        assert!(!out.stdout.is_empty(), "{args:?} printed nothing");
    }
}

#[test]
fn dash_reads_stdin_and_check_fails_a_violating_trace() {
    let fixture = std::fs::read_to_string(TRACE).expect("fixture readable");
    let from_file = inspect(&["waterfall", TRACE], "");
    let from_stdin = inspect(&["waterfall", "-"], &fixture);
    assert!(from_stdin.status.success());
    assert_eq!(from_stdin.stdout, from_file.stdout);

    // Party 1's commit sequence jumps from 0 to 2.
    let gap = concat!(
        "{\"at\":50,\"party\":1,\"ev\":\"vertex_committed\",\"round\":1,\"source\":0,",
        "\"leader\":true,\"seq\":0}\n",
        "{\"at\":60,\"party\":1,\"ev\":\"vertex_committed\",\"round\":2,\"source\":0,",
        "\"leader\":true,\"seq\":2}\n",
    );
    let out = inspect(&["check", "-"], gap);
    assert_eq!(out.status.code(), Some(1));
    let report = String::from_utf8_lossy(&out.stdout);
    assert!(report.contains("sequence jumped 0 -> 2"), "{report}");
}

#[test]
fn malformed_invocations_exit_non_zero() {
    let missing = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/absent.ndjson");
    for args in [
        &[][..],
        &["frobnicate", TRACE],
        &["check", missing],
        &["diff", "-", "-"],
    ] {
        let out = inspect(args, "");
        assert!(!out.status.success(), "{args:?} exited 0");
        assert!(!out.stderr.is_empty(), "{args:?} said nothing on stderr");
    }
}
