//! Native code lookup in a plain build. The root package builds
//! `certa-native` without its `aot` feature, so it holds no generated
//! code: no workload's program finds any, and a `certa-dist` worker that
//! resolved a paper workload runs its trials on the interpreter. Builds
//! with the feature are covered by certa-bench's `aot_parity` suite.

use std::net::SocketAddr;
use std::time::Duration;

use certa::core::analyze;
use certa::dist::{run_worker, Coordinator, DistConfig, WorkerOptions};
use certa::fault::{run_campaign, CampaignConfig, CampaignSession, Target};
use certa::native;
use certa::workloads::{all_workloads, GsmWorkload};

#[test]
fn plain_builds_have_no_native_code_for_any_workload() {
    assert!(
        native::ALL.is_empty(),
        "this suite expects certa-native built without the `aot` feature"
    );
    for w in all_workloads() {
        assert!(native::for_program(w.program()).is_none(), "{}", w.name());
        assert!(native::lookup(w.name()).is_none(), "{}", w.name());
    }
}

fn resolve_gsm(name: &str) -> Option<Box<dyn Target>> {
    (name == "gsm").then(|| Box::new(GsmWorkload::new()) as Box<dyn Target>)
}

#[test]
fn plain_build_loopback_worker_reports_interpreted() {
    let gsm = GsmWorkload::new();
    let tags = analyze(gsm.program());
    let config = CampaignConfig {
        trials: 16,
        errors: 2,
        seed: 0x6e61_7469,
        threads: 1,
        ..CampaignConfig::default()
    };
    let session = CampaignSession::new(&gsm, &tags, &config);
    let coordinator = Coordinator::bind("127.0.0.1:0").expect("bind");
    let addr: SocketAddr = coordinator.local_addr().expect("addr");
    let dist = DistConfig {
        fallback_inline: false,
        chunk_parts: 2,
        drain_timeout: Duration::from_secs(120),
        ..DistConfig::default()
    };
    let opts = WorkerOptions {
        name: "plain".into(),
        ..WorkerOptions::default()
    };
    let (result, report) = std::thread::scope(|scope| {
        let worker = scope.spawn(|| run_worker(addr, &resolve_gsm, &opts));
        let result = coordinator.run(&session, "gsm", &dist).expect("campaign");
        (result, worker.join().expect("worker thread"))
    });
    let report = report.expect("worker finished clean");
    assert_eq!(report.session_builds, 1);
    assert!(
        !report.native,
        "a plain build's worker must run interpreted"
    );
    assert_eq!(
        result.campaign.trials,
        run_campaign(&gsm, &tags, &config).trials
    );
}
