//! `repro_all`'s command line end to end: a subcommand regenerates one
//! artifact, and a bad one exits with code 2 before running anything.

use std::process::{Command, Output};

fn repro_all(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro_all"))
        .args(args)
        .output()
        .expect("repro_all runs")
}

#[test]
fn table1_subcommand_prints_table1_alone() {
    let out = repro_all(&["table1"]);
    assert!(out.status.success());
    assert_eq!(
        String::from_utf8(out.stdout).unwrap(),
        certa_bench::table1()
    );
}

#[test]
fn unknown_subcommand_exits_2() {
    let out = repro_all(&["fig7", "--trials", "1"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown subcommand \"fig7\""));
}
