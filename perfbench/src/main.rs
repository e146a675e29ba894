//! End-to-end and per-layer benchmark of the FT-Linda reproduction.
//!
//! ```text
//! perfbench --workload <pingpong|bag_of_tasks> --seed <n>
//!           --seconds <s> --trace <0|1> [--spans <file>]
//! perfbench --workload <pingpong|bag_of_tasks> --seed <n> --setup-only
//! ```
//!
//! Each workload runs in its own process on the in-process Sim cluster
//! (0 µs links, default cluster settings, no HTTP exporter) with
//! closed-loop clients. `--trace 0` runs the workload in segments, each
//! on a fresh cluster, and prints the end-to-end metrics; `--trace 1`
//! runs it untraced and then traced on one cluster, replays its inputs
//! through each layer, and prints the per-layer metrics. The last
//! line of standard output is one JSON object with the result; the exit
//! code is non-zero when any correctness check failed.

mod gen;
mod layers;
mod stats;
mod stmts;
mod workloads;

use stats::{
    host_cpu_ticks, median, p50_p99_us, peak_rss_mb, steal_limit, steal_pct, summarize,
    window_steal, Recorder, SpanLog, Summary,
};
use std::time::{Duration, Instant};
use workloads::{setup, Phase, Workload};

/// Segments of an untraced run. Each sets up a fresh cluster, and each
/// cluster settles into one of a few latency modes (see METRICS.md), so
/// a run averages over several.
const SEGMENTS: u64 = 6;

/// Set-ups per untraced run: the fresh process's first one, then after
/// each segment more, each in a fresh child process (`--setup-only`),
/// until that segment's share of `SETUP_REPS` is reached and its share
/// of `SETUP_BUDGET` has passed. `setup_s` is their median. A pingpong
/// set-up takes about a millisecond, so it takes many for scheduler noise
/// to cancel out, and spreading them over the run averages over the
/// host's state.
const SETUP_REPS: u64 = 42;
const SETUP_BUDGET: Duration = Duration::from_secs(2);

/// Pause after a cluster's teardown, so that its threads (which poll for
/// shutdown every 100 ms) are gone before set-ups are timed.
const TEARDOWN_PAUSE: Duration = Duration::from_millis(250);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    spans: Option<std::path::PathBuf>,
    /// Set up once, print the time it took and exit.
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut spans) =
        (None, None, None, None, None);
    let mut setup_only = false;
    while let Some(flag) = it.next() {
        if flag == "--setup-only" {
            setup_only = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--spans" => spans = Some(value.into()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let (seconds, trace) = if setup_only {
        (seconds.unwrap_or(1), trace.unwrap_or(false))
    } else {
        (
            seconds.ok_or("--seconds is required")?,
            trace.ok_or("--trace is required")?,
        )
    };
    if !(1..=120).contains(&seconds) {
        return Err("--seconds must be 1..=120".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        spans,
        setup_only,
    })
}

struct Report {
    attempted: u64,
    failed: u64,
    checks: Vec<String>,
    /// Printed and in the JSON result.
    metrics: Vec<(&'static str, f64, &'static str)>,
    lines: Vec<String>,
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <pingpong|bag_of_tasks> --seed <n> \
                 --seconds <s> --trace <0|1> [--spans <file>] | --setup-only"
            );
            std::process::exit(2);
        }
    };
    if args.setup_only {
        setup_only(&args);
    }
    let report = match if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    } {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} set-up failed: {e}", args.workload.name());
            std::process::exit(1);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let failed = report.failed + report.checks.len() as u64;
    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={nproc} clients={} hosts={} ops={} failed={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        workloads::CLIENTS,
        workloads::HOSTS,
        report.attempted,
        failed,
    );
    for l in &report.lines {
        println!("{l}");
    }
    let error_rate = failed as f64 / report.attempted.max(1) as f64;
    for (name, value, unit) in &report.metrics {
        println!("metric {name} = {value:.4} {unit}");
    }
    // 0 on every correct run, so not a gated metric: the JSON result
    // carries it as `failed` over `attempted`.
    println!("metric error_rate = {error_rate} ratio (not gated)");
    for c in &report.checks {
        println!("check FAILED: {c}");
    }
    let correct = failed == 0;
    println!("check {}", if correct { "ok" } else { "FAILED" });
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { -1.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        failed,
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

fn steal_line(steal: Option<f64>) -> String {
    match steal {
        Some(pct) => format!("host cpu stolen during the run: {pct:.1}%"),
        None => "host cpu steal unknown (no /proc/stat)".into(),
    }
}

fn phase_lines(name: &str, p: &Phase) -> Vec<String> {
    p.failures
        .messages
        .iter()
        .map(|e| format!("error {name}: {e}"))
        .collect()
}

/// Time one set-up, print it and exit. The process ends without tearing
/// the cluster down; its threads end with it.
fn setup_only(args: &Args) -> ! {
    let t0 = Instant::now();
    match setup(args.workload, args.seed) {
        Ok(env) => {
            println!("setup_s {}", t0.elapsed().as_secs_f64());
            std::mem::forget(env);
            std::process::exit(0)
        }
        Err(e) => {
            eprintln!("perfbench: {} set-up failed: {e}", args.workload.name());
            std::process::exit(1)
        }
    }
}

/// One set-up timed in a fresh child process.
fn setup_in_child(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = std::process::Command::new(exe)
        .args(["--workload", args.workload.name(), "--seed"])
        .arg(args.seed.to_string())
        .arg("--setup-only")
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("set-up child: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    match text.trim().strip_prefix("setup_s ") {
        Some(v) if out.status.success() => v.parse().map_err(|e| format!("set-up child: {e}")),
        _ => Err(format!("set-up child failed ({}): {text}", out.status)),
    }
}

/// Run the closed loop for the full time, cut into `SEGMENTS` segments
/// that each set up a fresh cluster, run, check the outputs and shut the
/// cluster down, then time more set-ups in child processes, so that
/// `setup_s` is a median and the extra clusters do not reach the memory
/// figure. The peak RSS is read after the first segment: later clusters
/// reuse the heap the earlier ones left, so a later peak would mix
/// clusters.
fn untraced(args: &Args) -> Result<Report, String> {
    let segments = SEGMENTS.min(args.seconds);
    let seg = Duration::from_secs(args.seconds) / segments as u32;
    let mut recs: Vec<Recorder> = (0..segments).map(|_| Recorder::new(seg)).collect();
    let mut first_setup = 0.0;
    // Per segment: the host CPU steal while its child set-ups ran, and
    // their times.
    let mut batches: Vec<(Option<f64>, Vec<f64>)> = Vec::new();
    let mut phases = Vec::new();
    let mut checks = Vec::new();
    let mut peak_rss = None;
    let cpu0 = host_cpu_ticks();
    for rec in &mut recs {
        let t0 = Instant::now();
        let mut env = setup(args.workload, args.seed)?;
        if phases.is_empty() {
            // The fresh process's set-up; later in-process ones follow a
            // load phase and are not comparable.
            first_setup = t0.elapsed().as_secs_f64();
        }
        phases.push(env.run_phase(rec, seg, false));
        checks.extend(env.check());
        peak_rss.get_or_insert_with(peak_rss_mb);
        env.shutdown();
        std::thread::sleep(TEARDOWN_PAUSE);
        let (t0, cpu, mut batch) = (Instant::now(), host_cpu_ticks(), Vec::new());
        while batch.len() < (SETUP_REPS / segments) as usize
            || t0.elapsed() < SETUP_BUDGET / segments as u32
        {
            batch.push(setup_in_child(args)?);
        }
        batches.push((steal_pct(cpu, host_cpu_ticks()), batch));
    }
    let steal = steal_pct(cpu0, host_cpu_ticks());
    let limit = steal_limit(
        &recs
            .iter()
            .zip(&phases)
            .flat_map(|(rec, p)| window_steal(rec, p.elapsed))
            .collect::<Vec<_>>(),
    );
    let segs: Vec<Summary> = recs
        .iter()
        .zip(&phases)
        .map(|(rec, p)| summarize(rec, p.elapsed, limit))
        .collect();
    let s = stats::combine(&segs);
    // Set-ups are filtered by steal like windows, a batch at a time.
    let batch_limit = steal_limit(&batches.iter().map(|b| b.0).collect::<Vec<_>>());
    let mut setups = vec![first_setup];
    for (steal, batch) in &batches {
        if steal.is_none_or(|pct| pct <= batch_limit) {
            setups.extend(batch);
        }
    }
    let round = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.0}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let mut lines = vec![
        format!(
            "samples={} segments={segments} windows={} window_s={} setups={}",
            s.ops,
            s.window_rates.len(),
            stats::WINDOW.as_secs_f64(),
            setups.len()
        ),
        format!(
            "segment op_p50_us: {}",
            segs.iter()
                .map(|g| if g.window_rates.len() > g.stolen_windows {
                    format!("{:.0}", g.p50_us)
                } else {
                    "-".into()
                })
                .collect::<Vec<_>>()
                .join(" ")
        ),
        format!("window ops_per_s: {}", round(&s.window_rates)),
        format!("window op_p99_us: {}", round(&s.window_p99s)),
        format!(
            "window steal_pct: {} (windows left out for steal over {limit:.1}%: {})",
            s.window_steal
                .iter()
                .map(|x| x.map_or("-".into(), |v| format!("{v:.1}")))
                .collect::<Vec<_>>()
                .join(" "),
            s.stolen_windows
        ),
        format!(
            "setup first: {first_setup:.5} s; per batch steal_pct/median_s/count (left out over {batch_limit:.1}% steal): {}",
            batches
                .iter()
                .map(|(steal, b)| format!(
                    "{}/{:.5}/{}",
                    steal.map_or("-".into(), |v| format!("{v:.1}")),
                    median(b.clone()),
                    b.len()
                ))
                .collect::<Vec<_>>()
                .join(" ")
        ),
        steal_line(steal),
        // Too unsteady between runs to gate on (see METRICS.md).
        format!("metric op_p90_us = {:.4} us (not gated)", s.p90_us),
        format!("metric op_p99_us = {:.4} us (not gated)", s.p99_us),
    ];
    for p in &phases {
        lines.extend(phase_lines("run", p));
    }
    Ok(Report {
        attempted: phases.iter().map(|p| p.attempted).sum(),
        failed: phases.iter().map(|p| p.failures.count).sum(),
        checks,
        metrics: vec![
            ("ops_per_s", s.ops_per_s, "1/s"),
            ("op_p50_us", s.p50_us, "us"),
            ("setup_s", median(setups), "s"),
            ("peak_rss_mb", peak_rss.unwrap_or(0.0), "MB"),
        ],
        lines,
    })
}

/// Half the time untraced, half traced (benchmark spans around every
/// `Runtime::execute`), then the per-layer replays.
fn traced(args: &Args) -> Result<Report, String> {
    let w = args.workload;
    let epoch = Instant::now();
    let half = Duration::from_secs_f64(args.seconds as f64 / 2.0);
    let mut rec = Recorder::new(half);
    let mut env = setup(w, args.seed)?;
    let cpu0 = host_cpu_ticks();
    let plain = env.run_phase(&mut rec, half, false);
    let plain_sum = summarize(
        &rec,
        plain.elapsed,
        steal_limit(&window_steal(&rec, plain.elapsed)),
    );
    rec.clear();
    env.cluster.order_stats().reset();
    env.cluster.reset_net_stats();
    let traced = env.run_phase(&mut rec, half, true);
    let traced_sum = summarize(
        &rec,
        traced.elapsed,
        steal_limit(&window_steal(&rec, traced.elapsed)),
    );
    let steal = steal_pct(cpu0, host_cpu_ticks());
    let order = env.cluster.order_stats();
    let (multicasts, broadcasts) = (order.ordered_multicasts(), order.broadcasts());
    let (net_msgs, net_bytes) = env.cluster.net_stats();
    let checks = env.check();
    env.shutdown();

    let ops = traced_sum.ops.max(1) as f64;
    let (exec_p50, exec_p99) = p50_p99_us(&traced.spans.durations("core.execute"));
    let (plain_p50, traced_p50) = (plain_sum.p50_us, traced_sum.p50_us);

    let mut log = SpanLog::new(epoch);
    let mut replay_errors = Vec::new();
    let inputs = layers::inputs(w, args.seed);
    let figs = layers::replay_all(&inputs, &mut log, &mut replay_errors);
    let fig = |name: &str| {
        figs.iter()
            .find(|f| f.0 == name)
            .map(|f| f.1)
            .expect("replay figure")
    };
    let residual =
        exec_p50 - fig("consul.order_p50_us") - fig("kernel.apply_p50_us") - fig("ags.encode_us");

    let mut metrics = vec![
        ("core.execute_p50_us", exec_p50, "us"),
        ("core.execute_p99_us", exec_p99, "us"),
        ("core.residual_us", residual, "us"),
    ];
    metrics.extend(figs.iter().copied());
    metrics.extend([
        ("consul.multicasts_per_op", multicasts as f64 / ops, "count"),
        (
            "consul.entries_per_batch",
            broadcasts as f64 / multicasts.max(1) as f64,
            "count",
        ),
        ("consul.net_msgs_per_op", net_msgs as f64 / ops, "count"),
        ("consul.net_bytes_per_op", net_bytes as f64 / ops, "B"),
    ]);
    metrics.extend([
        ("trace.op_p50_us", traced_p50, "us"),
        (
            "trace.overhead_pct",
            (traced_p50 - plain_p50) / plain_p50 * 100.0,
            "%",
        ),
    ]);

    let mut lines = vec![
        format!(
            "samples untraced={} traced={} executes={}",
            plain_sum.ops, traced_sum.ops, traced.executes
        ),
        steal_line(steal),
    ];
    lines.push(format!(
        "ledger {}: core.execute_p50_us {exec_p50:.1} = consul.order_p50_us {:.1} + kernel.apply_p50_us {:.1} + ags.encode_us {:.2} + residual {residual:.1}",
        w.name(),
        fig("consul.order_p50_us"),
        fig("kernel.apply_p50_us"),
        fig("ags.encode_us"),
    ));
    lines.extend(phase_lines("untraced", &plain));
    lines.extend(phase_lines("traced", &traced));
    lines.extend(replay_errors.iter().map(|e| format!("error replay: {e}")));

    if let Some(path) = &args.spans {
        log.absorb(traced.spans);
        if let Err(e) = log.write_tsv(path) {
            lines.push(format!("spans not written to {}: {e}", path.display()));
        } else {
            lines.push(format!("spans written to {}", path.display()));
        }
    }
    Ok(Report {
        attempted: plain.attempted + traced.attempted,
        failed: plain.failures.count + traced.failures.count + replay_errors.len() as u64,
        checks,
        metrics,
        lines,
    })
}
