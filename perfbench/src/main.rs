//! The repo benchmark: FL training, fleet rounds and open-loop serving,
//! end to end and layer by layer.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fl_heteroswitch|fl_fleet|serve_open> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. With `--trace 0` the workload runs once
//! with tracing off and the result line carries the end-to-end metrics.
//! With `--trace 1` it runs untraced, then again traced with the same
//! inputs; the result line carries the per-layer metrics, and a Chrome
//! trace plus a self-time table land in `perfbench/out/`. The last line
//! of standard output is always the JSON result; the process exits
//! non-zero when a correctness check fails. See `perfbench/README.md`.

mod clock;
mod fl;
mod layer;
mod report;
mod serve;
mod spans;
mod stats;

use report::Report;
use serde::json::JsonValue;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Environment overrides that change which code path runs. The benchmark
/// measures the production path, so it refuses to run under any of them.
const PATH_OVERRIDES: [&str; 4] = [
    "HS_BATCHED_OHW_MAX",
    "HS_CONV_ALGO",
    "HS_DTYPE",
    "HS_PARALLEL_THREADS",
];

const WORKLOADS: [&str; 3] = ["fl_heteroswitch", "fl_fleet", "serve_open"];
/// Most events written to the Chrome trace of a traced run.
const TRACE_EVENTS: usize = 60_000;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--cold-start-child") {
        let seed = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(0);
        serve::cold_start_child(seed);
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = guard() {
        eprintln!("perfbench: {e}");
        return ExitCode::from(2);
    }
    // the untraced pass runs with tracing off whatever HS_TRACE says
    hs_obs::trace::set_enabled(false);

    let (mut report, mut checks) = match args.workload.as_str() {
        "fl_heteroswitch" => run_fl(fl::Kind::HeteroSwitch, &args),
        "fl_fleet" => run_fl(fl::Kind::Fleet, &args),
        _ => match run_serve(&args) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::from(1);
            }
        },
    };
    // the untraced pass's checks, when a traced pass follows it
    for mut c in checks.drain(..) {
        c.name = format!("untraced.{}", c.name);
        report.checks.push(c);
    }
    report.set("peak_rss_mb", peak_rss_mb());
    report.named("peak_rss_mb", peak_rss_mb(), "MB");
    report.set(
        "nn.crossover_classes",
        hs_nn::batched_gemm_crossovers().len() as f64,
    );

    // a phase that missed more than its percentile's share of requests
    // reads as infinitely late; say so instead of printing a non-number
    let table = if args.trace {
        report::LAYERS
    } else {
        report::E2E
    };
    let bad: Vec<&str> = table
        .iter()
        .map(|&(name, _)| name)
        .filter(|n| report.values.get(n).is_some_and(|v| !v.is_finite()))
        .collect();
    report.check(
        "metrics_finite",
        bad.is_empty(),
        format!("non-finite: {bad:?}"),
    );
    let conditions = conditions();
    if let Err(e) = write_artifacts(&args, &mut report, &conditions) {
        report.check("artifacts_written", false, e);
    }
    print_human(&args, &report, &conditions);
    let correct = report.correct();
    for c in report.checks.iter().filter(|c| !c.ok) {
        eprintln!("perfbench: check {} FAILED: {}", c.name, c.detail);
    }
    let result = JsonValue::obj(vec![
        ("correct", JsonValue::Bool(correct)),
        ("attempted", JsonValue::Num(report.attempted.max(1) as f64)),
        ("failed", JsonValue::Num(report.failed as f64)),
        ("metrics", report.metrics_json(args.trace)),
    ]);
    println!("{}", result.render());
    if correct && report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Runs an FL workload: the untraced pass, and with `--trace 1` a traced
/// replay of the same rounds whose weights must match bit for bit.
fn run_fl(kind: fl::Kind, args: &Args) -> (Report, Vec<report::Check>) {
    let base = fl::run(kind, args.seed, args.seconds, false);
    if !args.trace {
        return (base.report, Vec::new());
    }
    let mut traced = fl::run(kind, args.seed, args.seconds, true);
    let bits = |w: &[f32]| w.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let same = bits(&base.weights) == bits(&traced.weights);
    traced.report.check(
        "fl_weights_bit_identical_traced_vs_untraced",
        same,
        format!("{} rounds replayed", base.rounds),
    );
    traced.report.set(
        "obs.trace_overhead",
        traced.primary_ms / base.primary_ms - 1.0,
    );
    let checks = base.report.checks;
    (traced.report, checks)
}

/// Runs `serve_open`: the untraced pass, and with `--trace 1` a traced
/// pass.
fn run_serve(args: &Args) -> Result<(Report, Vec<report::Check>), String> {
    // the first infer of the process pays the one-time routing probe
    let first_infer_ms = serve::first_infer_ms(args.seed);
    let base = serve::run(args.seed, args.seconds, false)?;
    let (mut report, checks) = if args.trace {
        let mut traced = serve::run(args.seed, args.seconds, true)?;
        traced.report.set(
            "obs.trace_overhead",
            traced.primary_ms / base.primary_ms - 1.0,
        );
        // cold starts and offline timings come from the untraced pass
        for name in [
            "serve.start_ms",
            "serve.first_response_ms",
            "nn.infer_b1_us",
            "nn.infer_b8_us",
            "nn.fuse_ms",
            "nn.checkpoint_load_ms",
        ] {
            traced.report.set(name, base.report.values[name]);
        }
        (traced.report, base.report.checks)
    } else {
        (base.report, Vec::new())
    };
    report.set("nn.first_infer_ms", first_infer_ms);
    Ok((report, checks))
}

/// Refuses to run under a path-changing override or in a debug build.
fn guard() -> Result<(), String> {
    let set: Vec<&str> = PATH_OVERRIDES
        .into_iter()
        .filter(|v| std::env::var_os(v).is_some())
        .collect();
    if !set.is_empty() {
        return Err(format!(
            "refusing to run: {set:?} changes the code path; the benchmark measures production defaults"
        ));
    }
    if cfg!(debug_assertions) {
        return Err("refusing to run a debug build; pass --release".to_string());
    }
    Ok(())
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The GEMM micro-kernel tier this CPU selects, by the same feature
/// checks, in the same order, as `hs_tensor`'s dispatch.
fn gemm_isa() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") {
            return "avx512";
        }
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            return "avx2";
        }
    }
    "portable"
}

/// The conditions the numbers came from.
fn conditions() -> JsonValue {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let crossovers = hs_nn::batched_gemm_crossovers()
        .into_iter()
        .map(|(m, k, th)| {
            JsonValue::Arr(vec![
                JsonValue::Num(m as f64),
                JsonValue::Num(k as f64),
                JsonValue::Num(th as f64),
            ])
        })
        .collect();
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    JsonValue::obj(vec![
        ("nproc", JsonValue::Num(nproc as f64)),
        (
            "pool_workers",
            JsonValue::Num(hs_parallel::pool_stats().workers as f64),
        ),
        ("gemm_isa", JsonValue::Str(gemm_isa().to_string())),
        ("crossovers_m_k_ohw", JsonValue::Arr(crossovers)),
        ("commit", JsonValue::Str(commit)),
        ("source_fnv64", JsonValue::Str(source_fingerprint())),
    ])
}

/// FNV-1a over the program sources (`crates/`, `vendor/` and the root
/// manifests), so a run is tied to the code it measured even in a
/// checkout without git metadata.
fn source_fingerprint() -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        if let Ok(entries) = std::fs::read_dir(dir) {
            for e in entries.flatten() {
                let p = e.path();
                if p.is_dir() {
                    walk(&p, out);
                } else {
                    out.push(p);
                }
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    walk(Path::new("crates"), &mut files);
    walk(Path::new("vendor"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// The lines for people: conditions, the workload's own names for its
/// numbers, every reported metric with its unit, and the checks.
fn print_human(args: &Args, report: &Report, conditions: &JsonValue) {
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!("conditions {}", conditions.render());
    for (name, value, unit) in &report.named {
        println!("  {:<28} {:>14.4} {}", name, value, unit);
    }
    let table = if args.trace {
        report::LAYERS
    } else {
        report::E2E
    };
    println!(
        "metrics ({}):",
        if args.trace {
            "per layer"
        } else {
            "end to end"
        }
    );
    for (name, unit) in table {
        let v = report.values.get(name).copied().unwrap_or(0.0);
        println!("  {:<28} {:>14.4} {}", name, v, unit);
    }
    for (key, value) in &report.detail {
        println!("{key} {}", value.render());
    }
    for c in &report.checks {
        println!(
            "check {:<44} {} ({})",
            c.name,
            if c.ok { "ok" } else { "FAILED" },
            c.detail
        );
    }
    if let Some(spans) = &report.spans {
        println!(
            "self time (traced pass): {:<24} {:>9} {:>12} {:>12} {:>7}",
            "span", "count", "total ms", "self ms", "self %"
        );
        let rows = spans.self_times();
        let all: f64 = rows.iter().map(|r| r.self_ms).sum::<f64>().max(1e-9);
        for r in rows.iter().take(24) {
            println!(
                "  {:<48} {:>9} {:>12.2} {:>12.2} {:>6.1}%",
                r.name,
                r.count,
                r.total_ms,
                r.self_ms,
                100.0 * r.self_ms / all
            );
        }
    }
}

/// Writes the run's report (and, traced, its Chrome trace and self-time
/// table) under `perfbench/out/`.
fn write_artifacts(args: &Args, report: &mut Report, conditions: &JsonValue) -> Result<(), String> {
    let dir = Path::new("perfbench/out");
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let stem = format!(
        "{}_seed{}_trace{}",
        args.workload, args.seed, args.trace as u8
    );
    let mut fields = vec![
        ("workload", JsonValue::Str(args.workload.clone())),
        ("seed", JsonValue::Num(args.seed as f64)),
        ("seconds", JsonValue::Num(args.seconds)),
        ("conditions", conditions.clone()),
        ("metrics", report.metrics_json(args.trace)),
        (
            "named",
            JsonValue::Obj(
                report
                    .named
                    .iter()
                    .map(|(n, v, _)| (n.to_string(), JsonValue::Num(*v)))
                    .collect(),
            ),
        ),
        ("detail", JsonValue::Obj(report.detail.clone())),
        (
            "checks",
            JsonValue::Obj(
                report
                    .checks
                    .iter()
                    .map(|c| (c.name.clone(), JsonValue::Bool(c.ok)))
                    .collect(),
            ),
        ),
    ];
    if let Some(spans) = &report.spans {
        let trace_path = dir.join(format!("{stem}.trace.json"));
        let events = spans.write_chrome_trace(&trace_path, TRACE_EVENTS)?;
        let rows = spans
            .self_times()
            .into_iter()
            .map(|r| {
                (
                    r.name.to_string(),
                    JsonValue::obj(vec![
                        ("count", JsonValue::Num(r.count as f64)),
                        ("total_ms", JsonValue::Num(r.total_ms)),
                        ("self_ms", JsonValue::Num(r.self_ms)),
                    ]),
                )
            })
            .collect();
        fields.push(("self_time", JsonValue::Obj(rows)));
        report.check(
            "chrome_trace_valid",
            true,
            format!("{events} events in {}", trace_path.display()),
        );
    }
    let path = dir.join(format!("{stem}.json"));
    serde::json::write_file(&path, &JsonValue::obj(fields))
        .map_err(|e| format!("{}: {e}", path.display()))
}
