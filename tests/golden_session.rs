//! Differential suite for shared golden sessions: a campaign prepared on
//! a workload's shared `GoldenSession` must be indistinguishable from an
//! independently built `CampaignSession::new` — the same fingerprint, the
//! same golden observables, byte-identical trial records, and its own
//! restore and harness counters, untouched by sibling campaigns.

use certa::core::{analyze, analyze_with, TagMap};
use certa::fault::{
    CampaignConfig, CampaignSession, FaultTarget, GoldenSession, HarnessFaultInjection,
    HarnessStats, Protection,
};
use certa::workloads::{all_workloads, Workload};

/// Few trials keep the debug-build suite quick; every config still runs
/// register or memory plans through checkpoint restores and probes.
const TRIALS: usize = 4;

fn config(protection: Protection, target: FaultTarget) -> CampaignConfig {
    CampaignConfig {
        trials: TRIALS,
        errors: 3,
        protection,
        target,
        seed: 0x60_1DE2,
        // A tight watchdog bounds what hung trials cost.
        watchdog_factor: 2,
        // One trial thread makes the restore-path counters deterministic.
        threads: 1,
        ..CampaignConfig::default()
    }
}

fn workload(name: &str) -> Box<dyn Workload> {
    all_workloads()
        .into_iter()
        .find(|w| w.name() == name)
        .expect("known workload")
}

/// Runs `shared` and `alone` and requires them to agree on everything a
/// caller can observe.
fn assert_same(shared: &CampaignSession<'_>, alone: &CampaignSession<'_>, what: &str) {
    assert_eq!(
        shared.fingerprint(),
        alone.fingerprint(),
        "{what}: fingerprint"
    );
    let (a, b) = (shared.golden(), alone.golden());
    assert_eq!(a.output, b.output, "{what}: golden output");
    assert_eq!(
        a.instructions, b.instructions,
        "{what}: golden instructions"
    );
    assert_eq!(
        a.eligible_population, b.eligible_population,
        "{what}: eligible population"
    );
    assert_eq!(a.exec_counts, b.exec_counts, "{what}: golden profile");
    assert_eq!(
        shared.checkpoint_capture_bytes(),
        alone.checkpoint_capture_bytes(),
        "{what}: capture bytes"
    );
    assert_eq!(shared.run_all(), alone.run_all(), "{what}: trial records");
    assert_eq!(
        shared.restore_stats(),
        alone.restore_stats(),
        "{what}: restore stats"
    );
    assert_eq!(
        shared.harness_stats(),
        alone.harness_stats(),
        "{what}: harness stats"
    );
}

/// Every regime × fault target, plus a from-scratch campaign, on one
/// golden session of `name`. All campaigns are prepared before any runs,
/// so each one's counters must stay its own while siblings run.
fn shared_golden_session_matches_independent_sessions(name: &str) {
    let w = workload(name);
    let tags = analyze(w.program());
    let base = config(Protection::ControlOnly, FaultTarget::Registers);
    let golden = GoldenSession::new(&*w, &base, None);
    let mut configs: Vec<CampaignConfig> = Protection::all()
        .into_iter()
        .flat_map(|p| [FaultTarget::Registers, FaultTarget::MemoryCells].map(|t| config(p, t)))
        .collect();
    configs.push(CampaignConfig {
        checkpointing: false,
        ..base.clone()
    });
    let shared: Vec<CampaignSession<'_>> =
        configs.iter().map(|c| golden.campaign(&tags, c)).collect();
    for (config, shared) in configs.iter().zip(&shared) {
        let what = format!(
            "{name} {}/{} checkpointing={}",
            config.protection.label(),
            config.target.label(),
            config.checkpointing
        );
        let alone = CampaignSession::new(&*w, &tags, config);
        assert_same(shared, &alone, &what);
    }
    let scratch = shared.last().expect("from-scratch campaign");
    assert_eq!(scratch.checkpoint_capture_bytes(), 0, "{name}");
    assert_eq!(scratch.restore_stats().total(), 0, "{name}");
    // The default checkpoint layout against the from-scratch reference.
    let checkpointed = configs
        .iter()
        .position(|c| (c.protection, c.target) == (base.protection, base.target))
        .expect("the checkpointed twin of the from-scratch campaign");
    assert_eq!(
        shared[checkpointed].run_all(),
        scratch.run_all(),
        "{name}: checkpointed and from-scratch records"
    );
}

/// One test per workload, so the harness runs them in parallel.
macro_rules! per_workload {
    ($($test:ident => $name:literal),* $(,)?) => {
        $(
            #[test]
            fn $test() {
                shared_golden_session_matches_independent_sessions($name);
            }
        )*
    };
}

per_workload! {
    susan_shares_one_golden_session => "susan",
    mpeg_shares_one_golden_session => "mpeg",
    mcf_shares_one_golden_session => "mcf",
    blowfish_shares_one_golden_session => "blowfish",
    gsm_shares_one_golden_session => "gsm",
    art_shares_one_golden_session => "art",
    adpcm_shares_one_golden_session => "adpcm",
}

/// The ablation's four tag maps share one golden session: the golden run
/// does not depend on the analysis, only the eligible counts do.
#[test]
fn ablation_tag_maps_share_one_golden_session() {
    for w in ["gsm", "adpcm"].map(workload) {
        let config = config(Protection::ControlOnly, FaultTarget::Registers);
        let golden = GoldenSession::new(&*w, &config, None);
        let variants: Vec<(&str, TagMap)> = certa_bench::ablation_variants()
            .into_iter()
            .map(|(name, opts)| (name, analyze_with(w.program(), &opts)))
            .collect();
        for (name, tags) in &variants {
            let alone = CampaignSession::new(&*w, tags, &config);
            let what = format!("{} {name}", w.name());
            assert_same(&golden.campaign(tags, &config), &alone, &what);
        }
    }
}

/// Two campaigns alive on one golden session — one sabotaged, one clean —
/// keep separate harness and restore counters, each equal to the counters
/// of the same campaign run alone.
#[test]
fn sibling_campaigns_keep_their_own_counters() {
    let blowfish = workload("blowfish");
    let w: &dyn Workload = &*blowfish;
    let tags = analyze(w.program());
    let clean = config(Protection::None, FaultTarget::Registers);
    let sabotaged = CampaignConfig {
        harness_faults: HarnessFaultInjection {
            panic_trials: vec![(1, 1)],
            hang_trials: Vec::new(),
        },
        ..config(Protection::ControlOnly, FaultTarget::Registers)
    };
    let golden = GoldenSession::new(w, &clean, None);
    let first = golden.campaign(&tags, &sabotaged);
    let second = golden.campaign(&tags, &clean);
    assert_same(
        &first,
        &CampaignSession::new(w, &tags, &sabotaged),
        "sabotaged",
    );
    assert_same(&second, &CampaignSession::new(w, &tags, &clean), "clean");
    assert_eq!(first.harness_stats().retries, 1);
    assert_eq!(second.harness_stats(), HarnessStats::default());
}
