//! Wall-clock benchmark of threaded ACR jobs.
//!
//! ```text
//! cargo run --release --manifest-path wallbench/Cargo.toml -- \
//!     --workload <halo-tcp|recover-persist> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload's job over and over in a closed loop — one job at a
//! time from this process, the next starting when the last returns — for
//! `--seconds` of wall time, checks every job's final state against a
//! plain single-threaded reference, and prints one JSON result line on
//! stdout. `--trace 0` prints the end-to-end metrics; `--trace 1` prints
//! the per-layer metrics (layer timings on the workload's own checkpoint
//! state plus spans folded from the runtime's recorder events). Progress
//! goes to stderr. See `NOTES.md` for the metric definitions.

mod check;
mod fold;
mod layers;
mod reference;
mod stats;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use acr::runtime::{FaultScript, Job};

use check::{check, Expect, Verdict};
use fold::{counter, fold, JobSpans, PHASES};
use reference::Reference;
use stats::{median, quantile, Metrics};
use workload::{FaultPlan, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(workload::find(value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// The job variants a run alternates between.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// The workload's job, run once before the measured loop so lazy
    /// set-up (allocator arenas, page cache, thread stacks) is paid
    /// outside it. Checked like every job; measured by no metric.
    Warmup,
    /// The workload's job; its events are folded into spans. The only
    /// kind a `--trace 0` run measures.
    Measured,
    /// The same job with the flight recorder off.
    RecorderOff,
    /// The same job over in-process channels instead of TCP.
    InProcess,
}

struct JobRun {
    kind: Kind,
    solve_s: f64,
    duration: f64,
    completed: bool,
    spans: Option<JobSpans>,
    verdict: Verdict,
    metrics: String,
}

impl JobRun {
    fn counter(&self, name: &str) -> f64 {
        counter(&self.metrics, name)
    }
}

/// Run job number `job` of a run and check it. `trace` runs also check the
/// reference's fault model against every SDC the job detected.
fn run_job(w: &Workload, kind: Kind, job: u64, args: &Args, r: &Reference, tmp: &Path) -> JobRun {
    let persist: Option<PathBuf> = w.recover.then(|| tmp.join(format!("job-{job}")));
    let cfg = w.config(
        w.tcp && kind != Kind::InProcess,
        kind != Kind::RecorderOff,
        persist.as_deref(),
    );
    let plan = w.recover.then(|| FaultPlan::draw(args.seed, job));
    let (script, crashes, sdcs) = match &plan {
        Some(p) => (p.script(), 1, 1),
        None => (FaultScript::new(), 0, 0),
    };
    let start = Instant::now();
    let report = Job::new(cfg).with_faults(script).run(w.factory());
    let solve_s = start.elapsed().as_secs_f64();
    if let Some(dir) = &persist {
        let _ = std::fs::remove_dir_all(dir);
    }
    let spans = (kind != Kind::RecorderOff).then(|| fold(&report.events));
    let sdc_seed = plan.map_or(0, |p| p.sdc_seed);
    let exp = Expect {
        finals: &r.finals,
        crashes,
        sdcs,
        sdc_iter: plan.map_or(0, |p| p.sdc_iter),
        sdc_masked: &|at, verdict| r.sdc_masked(sdc_seed, at, verdict),
        check_oracle: kind == Kind::Measured && args.trace,
    };
    let verdict = check(&report, spans.as_ref(), &exp);
    eprintln!(
        "  job {job:>3} {:<11} {solve_s:.3} s, duration {:.3} s, start-up {:.3} ms: {}",
        format!("{kind:?}"),
        report.duration,
        spans.as_ref().map_or(0.0, |s| s.setup * 1e3),
        if verdict.failed() {
            format!("FAILED: {}", verdict.failures.join("; "))
        } else if verdict.sdc_excused > 0 {
            "ok (undetected SDC excused: its flip had vanished by the next verdict)".into()
        } else {
            "ok".into()
        }
    );
    JobRun {
        kind,
        solve_s,
        duration: report.duration,
        completed: report.completed,
        spans,
        verdict,
        metrics: report.metrics,
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wallbench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let tmp = PathBuf::from(".wallbench_tmp").join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("wallbench: cannot create {}: {e}", tmp.display());
        return ExitCode::from(1);
    }
    let mut reference = Reference::build(&w);
    eprintln!(
        "wallbench: {} seed {} for {} s, trace {}; reference step {:.4} ms",
        w.name,
        args.seed,
        args.seconds,
        args.trace,
        reference.step_s * 1e3
    );

    let kinds: &[Kind] = match (args.trace, w.tcp) {
        (false, _) => &[Kind::Measured],
        (true, true) => &[Kind::Measured, Kind::RecorderOff, Kind::InProcess],
        (true, false) => &[Kind::Measured, Kind::RecorderOff],
    };
    let budget = Duration::from_secs_f64(args.seconds);
    let mut runs = vec![run_job(&w, Kind::Warmup, 0, &args, &reference, &tmp)];
    let start = Instant::now();
    while runs.len() <= kinds.len() || start.elapsed() < budget {
        let job = runs.len() as u64;
        let kind = kinds[(runs.len() - 1) % kinds.len()];
        runs.push(run_job(&w, kind, job, &args, &reference, &tmp));
    }
    let layer_times = args.trace.then(|| {
        layers::measure(
            &mut *reference.state,
            w.detection,
            w.ranks,
            &tmp.join("layers"),
        )
    });
    let _ = std::fs::remove_dir_all(&tmp);
    let _ = std::fs::remove_dir(".wallbench_tmp");

    let attempted = runs.len();
    let failed = runs.iter().filter(|r| r.verdict.failed()).count();
    let excused: usize = runs.iter().map(|r| r.verdict.sdc_excused).sum();
    let oracle: usize = runs.iter().map(|r| r.verdict.oracle_checks).sum();
    let mut correct = !runs.iter().any(|r| r.verdict.wrong_output);
    let metrics = if let Some(lt) = layer_times {
        let (m, attribution_ok) = per_layer(&w, &reference, &lt, &runs);
        correct &= attribution_ok;
        m
    } else {
        end_to_end(&runs)
    };
    eprint!("{}", metrics.table());
    eprintln!(
        "wallbench: {attempted} jobs, {failed} failed, {excused} undetected SDCs excused, \
         {oracle} detected SDCs checked against the reference, correct {correct}"
    );
    println!("{}", metrics.result_json(correct, attempted, failed));
    ExitCode::SUCCESS
}

/// Completed jobs of one kind, with their spans.
fn done(runs: &[JobRun], kind: Kind) -> Vec<&JobRun> {
    runs.iter()
        .filter(|r| r.kind == kind && r.completed)
        .collect()
}

fn solve_median(runs: &[JobRun], kind: Kind) -> f64 {
    median(
        &done(runs, kind)
            .iter()
            .map(|r| r.solve_s)
            .collect::<Vec<_>>(),
    )
}

fn spans_of<'a>(jobs: &[&'a JobRun]) -> Vec<&'a JobSpans> {
    jobs.iter().filter_map(|r| r.spans.as_ref()).collect()
}

fn end_to_end(runs: &[JobRun]) -> Metrics {
    let jobs = done(runs, Kind::Measured);
    let spans = spans_of(&jobs);
    let rounds: Vec<f64> = spans
        .iter()
        .flat_map(|s| s.rounds.iter().map(|r| r.total * 1e3))
        .collect();
    let mut m = Metrics::default();
    m.put("solve_s", solve_median(runs, Kind::Measured), "s");
    // The wall time of `Job::run` outside the span from the first Forward
    // phase to `JobEnd`, which the phases tile: the job's start-up and
    // shut-down. A mean, because on `halo-tcp` the start-up alone falls
    // into two sub-millisecond modes whose mix changes from run to run, and
    // a median jumps between them.
    let outside: Vec<f64> = jobs
        .iter()
        .filter_map(|r| Some(r.solve_s - (r.duration - r.spans.as_ref()?.setup)))
        .collect();
    m.put(
        "setup_s",
        outside.iter().sum::<f64>() / outside.len() as f64,
        "s",
    );
    m.put(
        "utilization",
        median(
            &jobs
                .iter()
                .filter_map(|r| Some(r.spans.as_ref()?.forward() / r.duration))
                .collect::<Vec<_>>(),
        ),
        "ratio",
    );
    m.put("round_ms_p50", quantile(&rounds, 0.5), "ms");
    m.put("round_ms_p90", quantile(&rounds, 0.9), "ms");
    m
}

/// The per-layer metrics, and whether the attribution checks held: every
/// round tiled by its three segments, and every measured job's phase rows
/// summing to its duration within 1%.
fn per_layer(
    w: &Workload,
    r: &Reference,
    lt: &layers::LayerTimes,
    runs: &[JobRun],
) -> (Metrics, bool) {
    let jobs = done(runs, Kind::Measured);
    let spans = spans_of(&jobs);
    let n = jobs.len().max(1) as f64;
    let sum = |f: &dyn Fn(&JobRun) -> f64| jobs.iter().map(|j| f(j)).sum::<f64>();
    let pooled_ms = |f: &dyn Fn(&JobSpans) -> Vec<f64>| -> Vec<f64> {
        spans.iter().flat_map(|s| f(s)).map(|x| x * 1e3).collect()
    };
    let rounds: Vec<_> = spans
        .iter()
        .flat_map(|s| s.rounds.iter().copied())
        .collect();
    let mb_s = |bytes: usize, secs: f64| bytes as f64 / secs / 1e6;
    let iters = w.iters as f64;
    let mut m = Metrics::default();

    m.put("apps.step_ms", r.step_s * 1e3, "ms");

    let pack_sum = sum(&|j| j.counter("acr_pack_seconds_sum"));
    let pack_count = sum(&|j| j.counter("acr_pack_seconds_count"));
    let pack_bytes = sum(&|j| j.counter("acr_pack_bytes_total"));
    m.put("pup.pack_ms_mean", pack_sum / pack_count * 1e3, "ms");
    m.put("pup.injob_pack_mb_s", pack_bytes / pack_sum / 1e6, "MB/s");
    m.put("pup.pack_mb_s", mb_s(lt.state_bytes, lt.pack_s), "MB/s");
    m.put(
        "pup.pack_cold_mb_s",
        mb_s(lt.state_bytes, lt.pack_cold_s),
        "MB/s",
    );
    let round_pack_bytes = spans.iter().map(|s| s.round_pack_bytes).sum::<u64>() as f64;
    m.put(
        "pup.round_pack_mb_s",
        round_pack_bytes / rounds.iter().map(|r| r.decide).sum::<f64>() / 1e6,
        "MB/s",
    );
    m.put(
        "pup.compare_mb_s",
        mb_s(lt.state_bytes, lt.compare_s),
        "MB/s",
    );
    m.put(
        "pup.chunk_digest_mb_s",
        mb_s(lt.state_bytes, lt.chunk_digest_s),
        "MB/s",
    );

    let raw = spans.iter().map(|s| s.ship_raw_bytes).sum::<u64>() as f64;
    let wire = spans.iter().map(|s| s.ship_wire_bytes).sum::<u64>() as f64;
    m.put("wire.encode_mb_s", mb_s(lt.body_bytes, lt.encode_s), "MB/s");
    m.put("wire.decode_mb_s", mb_s(lt.body_bytes, lt.decode_s), "MB/s");
    m.put(
        "wire.ship_ratio",
        if raw > 0.0 { wire / raw } else { 0.0 },
        "ratio",
    );
    m.put("wire.ship_raw_bytes_per_job", raw / n, "bytes");
    m.put("wire.ship_wire_bytes_per_job", wire / n, "bytes");
    m.put(
        "wire.frames_per_iter",
        spans.iter().map(|s| s.frames_sent).sum::<u64>() as f64 / (iters * n),
        "count",
    );

    m.put(
        "tcp.halo_wait_ms_per_iter",
        median(
            &spans
                .iter()
                .map(|s| (s.forward() / iters - r.step_s) * 1e3)
                .collect::<Vec<_>>(),
        ),
        "ms",
    );
    let twin = if w.tcp {
        Kind::InProcess
    } else {
        Kind::Measured
    };
    m.put("tcp.inproc_solve_s", solve_median(runs, twin), "s");
    m.put(
        "tcp.retries",
        sum(&|j| j.counter("acr_transport_retries_total")),
        "count",
    );
    m.put(
        "tcp.stale",
        sum(&|j| j.counter("acr_transport_stale_total")),
        "count",
    );
    m.put(
        "transport.ship_ms_p50",
        median(&rounds.iter().map(|r| r.ship * 1e3).collect::<Vec<_>>()),
        "ms",
    );

    m.put(
        "core.decide_ms_p50",
        median(&rounds.iter().map(|r| r.decide * 1e3).collect::<Vec<_>>()),
        "ms",
    );
    m.put(
        "core.commit_ms_p50",
        median(&rounds.iter().map(|r| r.commit * 1e3).collect::<Vec<_>>()),
        "ms",
    );
    m.put("core.rounds", rounds.len() as f64, "count");
    m.put(
        "core.crash_detect_ms_p50",
        median(&pooled_ms(&|s| s.crash_detect.clone())),
        "ms",
    );
    m.put(
        "core.false_deaths",
        spans
            .iter()
            .map(|s| s.node_deaths.saturating_sub(s.crashes))
            .sum::<usize>() as f64,
        "count",
    );
    m.put(
        "core.sdc_detect_ms_p50",
        median(&pooled_ms(&|s| s.sdc_detect.clone())),
        "ms",
    );

    m.put(
        "driver.recovery_ms_p50",
        median(&pooled_ms(&|s| s.recovery.clone())),
        "ms",
    );
    m.put(
        "driver.restore_ms_p50",
        median(&pooled_ms(&|s| s.restore.clone())),
        "ms",
    );
    m.put(
        "driver.rework_iters",
        spans.iter().map(|s| s.rework_iters).sum::<u64>() as f64 / n,
        "count",
    );
    m.put(
        "driver.phase_setup_s",
        spans.iter().map(|s| s.setup).sum::<f64>() / n,
        "s",
    );
    for (i, phase) in PHASES.iter().enumerate() {
        m.put(
            format!("driver.phase_{}_s", phase.label()),
            spans.iter().map(|s| s.phases[i]).sum::<f64>() / n,
            "s",
        );
    }
    let phase_err_pct = jobs
        .iter()
        .filter_map(|j| {
            let s = j.spans.as_ref()?;
            let rows = s.setup + s.phases.iter().sum::<f64>();
            Some((rows - j.duration).abs() / j.duration * 100.0)
        })
        .fold(0.0, f64::max);
    m.put("driver.phase_sum_err_pct", phase_err_pct, "%");
    let untiled = spans.iter().map(|s| s.untiled).sum::<usize>()
        + rounds.iter().filter(|r| !r.tiled()).count();
    m.put("attr.untiled_rounds", untiled as f64, "count");

    m.put("store.append_ms_p50", lt.append_s * 1e3, "ms");
    m.put("store.slot_write_ms_p50", lt.slot_write_s * 1e3, "ms");
    m.put(
        "store.fsyncs_per_round",
        sum(&|j| j.counter("acr_store_fsyncs_total")) / rounds.len().max(1) as f64,
        "count",
    );

    let traced = solve_median(runs, Kind::Measured);
    let off = solve_median(runs, Kind::RecorderOff);
    m.put(
        "obs.events",
        spans.iter().map(|s| s.events).sum::<usize>() as f64 / n,
        "count",
    );
    m.put(
        "obs.dropped",
        sum(&|j| j.counter("acr_obs_events_dropped_total")),
        "count",
    );
    m.put("obs.overhead_pct", (traced - off) / off * 100.0, "%");
    m.put("obs.traced_solve_s", traced, "s");
    m.put(
        "check.sdc_excused",
        runs.iter().map(|r| r.verdict.sdc_excused).sum::<usize>() as f64,
        "count",
    );

    (m, untiled == 0 && phase_err_pct <= 1.0)
}
