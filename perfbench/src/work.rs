//! One repetition of a workload, run in its own process: the timed
//! section, the checks of its outputs, and — when traced — the layer
//! probes that follow it.
//!
//! Everything from process start to checked results is timed. The
//! differential spot check, the distributed-vs-inline comparison and the
//! layer probes run after the clock stops; the two checks only in a
//! verifying repetition.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use certa_bench::{aot_workloads, AsTarget};
use certa_core::{analyze, TagMap};
use certa_dist::{run_worker, Coordinator, DistConfig, DistProgress, WorkerOptions};
use certa_fault::wire::{decode_trial_record, ByteReader};
use certa_fault::{
    CampaignConfig, CampaignResult, CampaignSession, GoldenRun, Protection, Target, TrialRecord,
    TrialStatus,
};
use certa_fidelity::verdict::VerdictCounts;
use certa_sim::{DecodedProgram, Machine, MachineConfig, NoHook, Outcome, SuperblockPolicy};
use certa_workloads::{all_workloads, SusanWorkload, Workload as App};

use crate::cli::{Workload, DEFAULT_SEED};
use crate::digest::{encode_records, fnv1a, point_digest};
use crate::metrics::PER_LAYER;
use crate::trace::{self, Recorder};

/// Trials per point of `repro` (its `repro_all` default).
pub const REPRO_TRIALS: usize = 40;
/// Trials of the `dist` campaign.
pub const DIST_TRIALS: usize = 2048;
/// Bit flips per trial of `dist` (`campaign_matrix`'s level).
pub const DIST_ERRORS: u64 = 2;
/// In-process workers of `dist`, one trial thread each.
pub const DIST_WORKERS: usize = 2;
/// Trial ids of each point re-run from scratch by the spot check.
const SPOT_SAMPLE: usize = 8;
/// Simulated instructions each MIPS probe runs per workload and tier.
const PROBE_INSTRUCTIONS: u64 = 16_000_000;

/// Where runs write their journals and span dumps.
pub fn scratch_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/tmp"))
}

/// Trial threads per campaign: at most two, never more than the cores.
#[must_use]
pub fn trial_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(2)
}

/// What one repetition measured and checked.
#[derive(Debug, Default)]
pub struct Rep {
    /// Process start to checked results.
    pub wall_s: f64,
    /// Time in `all_workloads()`, `analyze` and session builds.
    pub setup_s: f64,
    /// Trials scheduled.
    pub scheduled: u64,
    /// Trials that ended with an experimental outcome.
    pub completed: u64,
    /// Peak resident set at the end of the timed section.
    pub peak_rss_mib: f64,
    /// `(point, digest)` of every output the run produced.
    pub points: Vec<(String, u64)>,
    /// Every failed check.
    pub problems: Vec<String>,
    /// Per-layer metrics (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
}

/// The clock, the recorder and the generated configuration of one
/// repetition.
struct Ctx {
    started: Instant,
    seed: u64,
    /// Run the untimed differential checks.
    verify: bool,
    threads: usize,
    rec: Recorder,
    rep: Rep,
    setup: Duration,
}

impl Ctx {
    /// Runs `f` as set-up work: timed into `setup_s` and, when traced,
    /// recorded as span `name`.
    fn setup<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = self.rec.span(name, None, |_| f());
        self.setup += t.elapsed();
        out
    }

    /// Ends the timed section.
    fn stop_clock(&mut self) {
        self.rep.wall_s = self.started.elapsed().as_secs_f64();
        self.rep.setup_s = self.setup.as_secs_f64();
        self.rep.peak_rss_mib = peak_rss_mib();
    }

    fn layer(&mut self, name: &'static str, value: f64) {
        self.rep.layers.insert(name, value);
    }

    fn problem(&mut self, what: String) {
        self.rep.problems.push(what);
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Runs one repetition of `workload`. `started` is taken first thing in
/// `main`, so the time includes the whole process.
#[must_use]
pub fn run(workload: Workload, seed: u64, trace: bool, verify: bool, started: Instant) -> Rep {
    let mut ctx = Ctx {
        started,
        seed,
        verify,
        threads: trial_threads(),
        rec: Recorder::new(u64::from(std::process::id()) ^ seed.rotate_left(32), trace),
        rep: Rep::default(),
        setup: Duration::ZERO,
    };
    let probe_apps = match workload {
        Workload::Repro => repro(&mut ctx),
        Workload::Dist => dist(&mut ctx),
    };
    if ctx.rec.enabled() {
        sim_probes(&mut ctx, &probe_apps);
        span_layers(&mut ctx, workload);
    }
    ctx.rep
}

// ---------------------------------------------------------------------
// repro
// ---------------------------------------------------------------------

/// Trials `repro_all` schedules at `trials` per point.
fn repro_trials(apps: &[Box<dyn App>], trials: usize) -> u64 {
    let table2: usize = apps
        .iter()
        .map(|w| certa_bench::table2_error_levels(w.name()).len() * 2 * trials)
        .sum();
    let figures: usize = certa_bench::FigureSpec::all()
        .iter()
        .map(|s| s.errors.len() * trials * (1 + usize::from(s.include_unprotected)))
        .sum();
    let ablation = apps.len() * certa_bench::ablation_variants().len() * trials.min(24);
    (table2 + figures + ablation) as u64
}

/// `repro_all`'s output, artifact by artifact, digested per artifact.
fn repro(ctx: &mut Ctx) -> Vec<Box<dyn App>> {
    let apps = ctx.setup("workloads.all_workloads", all_workloads);
    let tags: Vec<TagMap> = apps
        .iter()
        .map(|w| ctx.setup("core.analyze", || analyze(w.program())))
        .collect();
    let (trials, seed, rec) = (REPRO_TRIALS, ctx.seed, &ctx.rec);
    let mut artifacts: Vec<(&'static str, String)> = Vec::new();
    let mut text = format!("=== certa: full reproduction (trials = {trials}) ===\n\n");
    artifacts.push((
        "table1",
        rec.span("repro.table1", None, |_| certa_bench::table1()),
    ));
    artifacts.push((
        "table2",
        rec.span("repro.table2", None, |_| {
            certa_bench::render_table2(&certa_bench::table2(trials, seed))
        }),
    ));
    artifacts.push((
        "table3",
        rec.span("repro.table3", None, |_| {
            certa_bench::render_table3(&certa_bench::table3())
        }),
    ));
    for spec in certa_bench::FigureSpec::all() {
        let rendered = rec.span(figure_span(spec.id), None, |_| {
            certa_bench::render_figure(&spec, &certa_bench::figure(&spec, trials, seed))
        });
        artifacts.push((spec.id, rendered));
    }
    let ablation = rec.span("repro.ablation", None, |_| {
        certa_bench::render_ablation(&certa_bench::ablation(trials.min(24), 4, seed))
    });
    for (id, rendered) in &artifacts {
        text.push_str(rendered);
        text.push('\n');
        ctx.rep
            .points
            .push(((*id).to_string(), fnv1a(rendered.as_bytes())));
    }
    text.push_str(&ablation);
    ctx.rep
        .points
        .push(("ablation".into(), fnv1a(ablation.as_bytes())));
    ctx.rep.points.push(("text".into(), fnv1a(text.as_bytes())));
    ctx.rep.scheduled = repro_trials(&apps, trials);
    // The artifact functions hide their records; a harness error would
    // only show as a reconciliation panic, which fails the process.
    ctx.rep.completed = ctx.rep.scheduled;
    ctx.stop_clock();

    if ctx.verify && seed != DEFAULT_SEED {
        // The same campaigns Table 2's protected column runs.
        for (w, tags) in apps.iter().zip(&tags) {
            let config = CampaignConfig {
                trials,
                errors: certa_bench::table2_error_levels(w.name())[0],
                protection: Protection::ControlOnly,
                seed,
                threads: ctx.threads,
                ..CampaignConfig::default()
            };
            let ids = sample_ids(trials);
            let fast = CampaignSession::new(w.as_target(), tags, &config).run_subset(&ids);
            let key = point_key(&**w, &config);
            if let Some(problem) = spot_check(&**w, tags, &config, &ids, &fast, &key) {
                ctx.problem(problem);
            }
        }
    }
    apps
}

fn figure_span(id: &str) -> &'static str {
    match id {
        "fig1" => "repro.fig1",
        "fig2" => "repro.fig2",
        "fig3" => "repro.fig3",
        "fig4" => "repro.fig4",
        "fig5" => "repro.fig5",
        _ => "repro.fig6",
    }
}

// ---------------------------------------------------------------------
// Campaign checks and layer metrics
// ---------------------------------------------------------------------

fn point_key(w: &dyn App, config: &CampaignConfig) -> String {
    format!(
        "{}/{}/{}/e{}",
        w.name(),
        config.target.label(),
        config.protection.label(),
        config.errors
    )
}

/// A fixed sample of trial ids spread over `0..trials`.
fn sample_ids(trials: usize) -> Vec<u32> {
    let mut ids: Vec<u32> = (0..SPOT_SAMPLE)
        .map(|k| (k * trials / SPOT_SAMPLE) as u32)
        .collect();
    ids.push(trials.saturating_sub(1) as u32);
    ids.dedup();
    ids
}

/// How many of `records` are indistinguishable from the golden run:
/// halted with the golden output after the golden instruction count.
fn golden_like(records: &[TrialRecord], golden: &GoldenRun) -> u64 {
    let like = |r: &&TrialRecord| {
        matches!(&r.status, TrialStatus::Completed(t)
            if t.outcome == Outcome::Halted
                && t.instructions == golden.instructions
                && t.output.as_deref() == Some(golden.output.as_slice()))
    };
    records.iter().filter(like).count() as u64
}

fn classify(rec: &Recorder, w: &dyn App, records: &[TrialRecord], golden: &[u8]) -> VerdictCounts {
    rec.span("fidelity.classify", None, |_| {
        let mut counts = VerdictCounts::default();
        for record in records {
            counts.record(&w.classify_trial(&record.status, golden));
        }
        counts
    })
}

/// The wire round trip check and the fault, fidelity and wire layer
/// metrics of one campaign (traced runs only).
fn campaign_layers(
    ctx: &mut Ctx,
    key: &str,
    campaign: &CampaignResult,
    verdicts: &VerdictCounts,
    encoded: &[u8],
) {
    let decoded = ctx
        .rec
        .span("wire.decode", None, |_| decode_records(encoded));
    match decoded {
        Ok(records) if encode_records(&records) == encoded => {}
        Ok(_) => ctx.problem(format!("{key}: decoded records re-encode differently")),
        Err(e) => ctx.problem(format!("{key}: record table does not decode: {e}")),
    }
    let (restore, harness, v) = (&campaign.restore_stats, &campaign.harness_stats, verdicts);
    let trials = campaign.trials.len() as f64;
    let golden_like = golden_like(&campaign.trials, &campaign.golden) as f64;
    for (name, value) in [
        ("fault.sessions", 1.0),
        (
            "fault.checkpoint_bytes",
            campaign.checkpoint_capture_bytes as f64,
        ),
        ("fault.trials", trials),
        ("fault.restore.dirty_page", restore.dirty_page as f64),
        ("fault.restore.diff_hop", restore.diff_hop as f64),
        (
            "fault.restore.cache_hits",
            restore.diff_union_cache_hits as f64,
        ),
        ("fault.restore.full_image", restore.full_image as f64),
        ("fault.golden_like_share", golden_like / trials.max(1.0)),
        ("fault.harness.retries", harness.retries as f64),
        ("fault.harness.timeouts", harness.timeouts as f64),
        ("fault.harness.errors", harness.harness_errors as f64),
        ("fidelity.masked", v.masked as f64),
        ("fidelity.tolerable", v.tolerable as f64),
        ("fidelity.silent", v.silent_corruption as f64),
        ("fidelity.crash", v.detected_crash as f64),
        ("fidelity.hang", v.hang as f64),
        ("fidelity.check", v.detected_by_check as f64),
        ("fidelity.harness_error", v.harness_error as f64),
        ("wire.bytes", encoded.len() as f64),
    ] {
        ctx.layer(name, value);
    }
}

fn decode_records(encoded: &[u8]) -> Result<Vec<TrialRecord>, String> {
    let mut r = ByteReader::new(encoded);
    let n = r.u32().map_err(|e| format!("{e:?}"))?;
    let records = (0..n)
        .map(|_| decode_trial_record(&mut r).map_err(|e| format!("{e:?}")))
        .collect::<Result<Vec<_>, _>>()?;
    r.expect_end().map_err(|e| format!("{e:?}"))?;
    Ok(records)
}

/// Re-runs `ids` of the campaign `config` from instruction zero
/// (`checkpointing: false`) and compares them with the timed records.
fn spot_check(
    w: &dyn App,
    tags: &TagMap,
    config: &CampaignConfig,
    ids: &[u32],
    timed: &[TrialRecord],
    key: &str,
) -> Option<String> {
    let scratch = CampaignConfig {
        checkpointing: false,
        ..config.clone()
    };
    let fresh = CampaignSession::new(w.as_target(), tags, &scratch).run_subset(ids);
    let diverged: Vec<u32> = ids
        .iter()
        .zip(fresh.iter().zip(timed))
        .filter(|(_, (a, b))| a != b)
        .map(|(id, _)| *id)
        .collect();
    (!diverged.is_empty())
        .then(|| format!("{key}: trials {diverged:?} differ from their from-scratch re-run"))
}

// ---------------------------------------------------------------------
// dist
// ---------------------------------------------------------------------

fn resolve_susan(name: &str) -> Option<Box<dyn Target>> {
    (name == "susan").then(|| Box::new(SusanWorkload::new()) as Box<dyn Target>)
}

/// One durable distributed susan campaign: a coordinator with a
/// write-ahead journal and [`DIST_WORKERS`] in-process workers over
/// loopback TCP.
fn dist(ctx: &mut Ctx) -> Vec<Box<dyn App>> {
    let mut apps = ctx.setup("workloads.all_workloads", all_workloads);
    let at = apps
        .iter()
        .position(|w| w.name() == "susan")
        .expect("susan is a workload");
    // The journal's verdict classifier must be `'static`.
    let susan: &'static dyn App = Box::leak(apps.remove(at));
    let tags = ctx.setup("core.analyze", || analyze(susan.program()));
    let config = CampaignConfig {
        trials: DIST_TRIALS,
        errors: DIST_ERRORS,
        protection: Protection::ControlOnly,
        seed: ctx.seed,
        threads: ctx.threads,
        ..CampaignConfig::default()
    };
    let key = point_key(susan, &config);
    let session = ctx.setup("fault.session_build", || {
        CampaignSession::new_with_aot(
            susan.as_target(),
            &tags,
            &config,
            aot_workloads::lookup("susan"),
        )
    });
    let golden = session.golden().output.clone();
    let classify_journal = move |r: &TrialRecord| susan.classify_trial(&r.status, &golden);
    let dist_config = DistConfig {
        worker_poll: Duration::from_millis(10),
        fallback_inline: false,
        worker_threads: 1,
        drain_timeout: Duration::from_secs(120),
        ..DistConfig::default()
    };
    let dir = scratch_dir().join(format!("dist-{}", std::process::id()));
    let journal = dir.join("journal.wal");
    ctx.rep.scheduled = DIST_TRIALS as u64;

    let outcome = std::fs::create_dir_all(&dir)
        .map_err(|e| format!("cannot create {}: {e}", dir.display()))
        .and_then(|()| Coordinator::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}")))
        .and_then(|coordinator| {
            let addr = coordinator
                .local_addr()
                .map_err(|e| format!("local_addr: {e}"))?;
            let rec = &ctx.rec;
            let progress = DistProgress::default();
            rec.span("dist.run", None, |run| {
                std::thread::scope(|scope| {
                    let workers: Vec<_> = (0..DIST_WORKERS)
                        .map(|i| {
                            let opts = WorkerOptions {
                                name: format!("worker-{i}"),
                                threads_override: Some(1),
                                backoff_seed: i as u64,
                                ..WorkerOptions::default()
                            };
                            scope.spawn(move || {
                                rec.span("dist.run_worker", run, |_| {
                                    run_worker(addr, &resolve_susan, &opts)
                                })
                            })
                        })
                        .collect();
                    let result = rec.span("dist.run_durable", run, |_| {
                        coordinator.run_durable(
                            &session,
                            "susan",
                            &dist_config,
                            &progress,
                            &journal,
                            Some(&classify_journal),
                        )
                    });
                    let reports: Result<Vec<_>, String> = workers
                        .into_iter()
                        .map(|h| match h.join() {
                            Ok(report) => report.map_err(|e| format!("worker: {e}")),
                            Err(_) => Err("worker thread panicked".to_string()),
                        })
                        .collect();
                    match (result, reports) {
                        (Ok(result), Ok(reports)) => Ok((result, reports)),
                        (Err(e), _) => Err(format!("coordinator: {e}")),
                        (_, Err(e)) => Err(e),
                    }
                })
            })
        });
    let journal_bytes = std::fs::metadata(&journal).map_or(0, |m| m.len());
    let _ = std::fs::remove_dir_all(&dir);

    let (result, reports) = match outcome {
        Ok(done) => done,
        Err(e) => {
            // A failed distributed campaign fails every one of its trials.
            ctx.problem(format!("{key}: distributed campaign failed: {e}"));
            ctx.stop_clock();
            return vec![Box::new(SusanWorkload::new())];
        }
    };
    let records = &result.campaign.trials;
    if let Err(e) = result.campaign.verify_reconciliation() {
        ctx.problem(format!("{key}: distributed result does not reconcile: {e}"));
    }
    let verdicts = classify(&ctx.rec, susan, records, &result.campaign.golden.output);
    if verdicts != result.verdicts {
        ctx.problem(format!(
            "{key}: journaled verdict counts differ from the records'"
        ));
    }
    let encoded = ctx
        .rec
        .span("wire.encode", None, |_| encode_records(records));
    let digest = point_digest(&encoded, &verdicts);
    ctx.rep.points.push((key.clone(), digest));
    ctx.rep.completed = result.campaign.completed().count() as u64;
    ctx.stop_clock();

    // Distributed ≡ inline: the same session's own run at full threads,
    // reconciled by `finish`. A traced repetition needs its times for
    // `fault.run_s`, `fault.finish_s` and `dist.overhead_s`.
    if ctx.verify || ctx.rec.enabled() {
        let rec = &ctx.rec;
        let inline = rec.span("fault.run_all", None, |_| session.run_all());
        let finished = rec.span("fault.finish", None, |_| {
            catch_unwind(AssertUnwindSafe(|| session.finish(inline)))
        });
        let same = finished.map(|inline| {
            let verdicts = classify(
                &Recorder::new(0, false),
                susan,
                &inline.trials,
                &inline.golden.output,
            );
            point_digest(&encode_records(&inline.trials), &verdicts) == digest
        });
        match same {
            Ok(true) => {}
            Ok(false) => ctx.problem(format!(
                "{key}: distributed records differ from the inline run_all"
            )),
            Err(_) => ctx.problem(format!("{key}: inline trial accounting does not reconcile")),
        }
    }
    if ctx.verify && ctx.seed != DEFAULT_SEED {
        let ids = sample_ids(DIST_TRIALS);
        let sampled: Vec<TrialRecord> = ids.iter().map(|&i| records[i as usize].clone()).collect();
        if let Some(problem) = spot_check(susan, &tags, &config, &ids, &sampled, &key) {
            ctx.problem(problem);
        }
    }
    if ctx.rec.enabled() {
        campaign_layers(ctx, &key, &result.campaign, &verdicts, &encoded);
        let sum =
            |f: fn(&certa_dist::WorkerLedger) -> f64| result.workers.iter().map(f).sum::<f64>();
        ctx.layer("dist.journal_bytes", journal_bytes as f64);
        ctx.layer("dist.leases", sum(|w| f64::from(w.leases)));
        ctx.layer("dist.redeliveries", result.redeliveries as f64);
        ctx.layer(
            "dist.stale_completions",
            sum(|w| f64::from(w.stale_completions)),
        );
        ctx.layer("dist.heartbeats", sum(|w| w.heartbeats as f64));
        ctx.layer(
            "dist.reconnects",
            reports.iter().map(|r| f64::from(r.reconnects)).sum(),
        );
        ctx.layer(
            "dist.session_builds",
            reports.iter().map(|r| f64::from(r.session_builds)).sum(),
        );
    }
    vec![Box::new(SusanWorkload::new())]
}

// ---------------------------------------------------------------------
// Layer probes and span-derived metrics (traced runs only)
// ---------------------------------------------------------------------

/// Times the two lowerings every session does, and golden runs on the
/// interpreter and on native code, for each of `apps`.
fn sim_probes(ctx: &mut Ctx, apps: &[Box<dyn App>]) {
    let mut interp = Vec::new();
    let mut native = Vec::new();
    for w in apps {
        let program = w.program();
        let config = MachineConfig {
            mem_size: w.mem_size(),
            profile: true,
            ..MachineConfig::default()
        };
        let mut m = Machine::new(program, &config);
        w.prepare(&mut m);
        let golden = m.run(&mut NoHook);
        let counts = m.exec_counts().to_vec();
        ctx.rec.span("sim.decode", None, |_| {
            std::hint::black_box(DecodedProgram::new(program));
            std::hint::black_box(DecodedProgram::with_policy(
                program,
                &SuperblockPolicy::seeded(counts),
            ));
        });
        let aot = aot_workloads::lookup(w.name()).expect("every workload is precompiled");
        let reps = (PROBE_INSTRUCTIONS / golden.instructions.max(1)).clamp(1, 1_000);
        let mut mips = |span: &'static str, native_tier: bool| {
            let mut seconds = 0.0;
            for _ in 0..reps {
                let mut m = Machine::new(program, &config);
                w.prepare(&mut m);
                let t = Instant::now();
                let r = ctx.rec.span(span, None, |_| {
                    if native_tier {
                        m.run_aot(&mut NoHook, aot)
                    } else {
                        m.run(&mut NoHook)
                    }
                });
                seconds += t.elapsed().as_secs_f64();
                if r != golden {
                    ctx.rep
                        .problems
                        .push(format!("{}: {span} diverges from the golden run", w.name()));
                }
            }
            (golden.instructions * reps) as f64 / seconds / 1e6
        };
        let (i, n) = (mips("sim.run", false), mips("sim.run_aot", true));
        ctx.layer(listed(&format!("sim.interp_mips.{}", w.name())), i);
        ctx.layer(listed(&format!("sim.aot_mips.{}", w.name())), n);
        interp.push(i);
        native.push(n);
    }
    ctx.layer("sim.interp_mips.geomean", certa_bench::geomean(&interp));
    ctx.layer("sim.aot_mips.geomean", certa_bench::geomean(&native));
}

/// The name of the listed per-layer metric `name`.
fn listed(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.name)
        .unwrap_or_else(|| panic!("{name} is not a listed per-layer metric"))
}

/// Per-layer times from the recorded spans; writes the spans to
/// `tmp/trace-<workload>.tsv`.
fn span_layers(ctx: &mut Ctx, workload: Workload) {
    let spans = ctx.rec.spans();
    let total = |name: &str| trace::total_s(&spans, name);
    let mut times = vec![
        ("workloads.build_s", total("workloads.all_workloads")),
        ("core.analyze_s", total("core.analyze")),
        ("sim.decode_s", total("sim.decode")),
        ("fault.session_build_s", total("fault.session_build")),
        ("fault.run_s", total("fault.run_all")),
        ("fault.finish_s", total("fault.finish")),
        ("fidelity.classify_s", total("fidelity.classify")),
        ("wire.encode_s", total("wire.encode")),
        ("wire.decode_s", total("wire.decode")),
        ("repro.table1_s", total("repro.table1")),
        ("repro.table2_s", total("repro.table2")),
        ("repro.table3_s", total("repro.table3")),
        ("repro.fig1_s", total("repro.fig1")),
        ("repro.fig2_s", total("repro.fig2")),
        ("repro.fig3_s", total("repro.fig3")),
        ("repro.fig4_s", total("repro.fig4")),
        ("repro.fig5_s", total("repro.fig5")),
        ("repro.fig6_s", total("repro.fig6")),
        ("repro.ablation_s", total("repro.ablation")),
    ];
    if workload == Workload::Dist {
        let workers = trace::durations_s(&spans, "dist.run_worker");
        let run = total("dist.run_durable");
        times.extend([
            ("dist.run_s", run),
            (
                "dist.worker_s.max",
                workers.iter().copied().fold(0.0, f64::max),
            ),
            (
                "dist.worker_s.min",
                workers.iter().copied().fold(f64::INFINITY, f64::min),
            ),
            ("dist.overhead_s", run - total("fault.run_all")),
        ]);
    }
    for (name, value) in times {
        ctx.layer(name, value);
    }
    let path = scratch_dir().join(format!("trace-{}.tsv", workload.name()));
    let written = std::fs::create_dir_all(scratch_dir())
        .and_then(|()| std::fs::write(&path, trace::to_tsv(&spans)));
    if let Err(e) = written {
        eprintln!("certa-perfbench: cannot write {}: {e}", path.display());
    }
}
