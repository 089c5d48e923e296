//! The algoprof benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sweep-list|serve-mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Drives a closed loop for `--seconds`
//! and checks every op against a known answer; sets the workload up nine
//! times, four of them before the timed phase and four after it, and
//! reports the median set-up time. The peak RSS
//! reported is that of the timed phase. The last line
//! of stdout is one JSON object: with `--trace 0` it carries the
//! end-to-end metrics, with `--trace 1` the per-layer ledger (the loop
//! then runs half its time untraced and half traced, so the gap is the
//! tracing overhead, and the spans go to `.bench_out/`). Lines before it
//! name the host, toolchain, source, seed and fusion state, so figures
//! from different hosts are never compared.

mod corpus;
mod ledger;
mod spans;
mod stats;
mod workloads;

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use ledger::Metric;
use stats::{median, nproc, peak_rss_mb, quantile};
use workloads::{Outcome, Prepared, Workload};

/// Set-ups per run; the median is reported as `setup_s`. Half of the
/// others run before the timed phase and half after it, so the median
/// samples the host's speed at two moments a run apart, not one.
const SETUPS: usize = 9;

/// Span names recorded by the workloads, reported as self time per op.
const SPAN_NAMES: [&str; 7] = [
    "op",
    "core.sweep",
    "core.report",
    "serve.submit",
    "serve.status",
    "serve.stream",
    "bench.check",
];

struct Args {
    workload: Workload,
    workload_name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut i = 0;
    while i < args.len() {
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{} requires a value", args[i]))?;
        match args[i].as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| "bad --seed")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && *s <= 600.0)
                        .ok_or("bad --seconds")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 2;
    }
    let workload_name = workload.ok_or("missing --workload")?;
    Ok(Args {
        workload: Workload::parse(&workload_name)
            .ok_or_else(|| format!("unknown workload {workload_name:?}"))?,
        workload_name,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

/// The checkout's commit, with `-dirty` if files differ from it, or
/// `none` where the checkout is not a git repository.
fn commit() -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
    };
    match git(&["rev-parse", "--short=12", "HEAD"]) {
        Some(head) => {
            let dirty = git(&["status", "--porcelain"]).is_some_and(|s| !s.trim().is_empty());
            format!("{}{}", head.trim(), if dirty { "-dirty" } else { "" })
        }
        None => "none".to_owned(),
    }
}

/// Formats a measured value for the JSON line (all digits; JSON has no
/// NaN or infinity).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(*value)
        );
    }
    out.push_str("}}");
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <sweep-list|serve-mixed> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let fusion = if std::env::var("ALGOPROF_NO_FUSE").as_deref() == Ok("1") {
        "off"
    } else {
        "on"
    };
    println!(
        "# host: nproc={} rustc=\"{}\" commit={} seed={} fusion={fusion} \
         workload={} seconds={} trace={}",
        nproc(),
        env!("PERFBENCH_RUSTC_VERSION"),
        commit(),
        args.seed,
        args.workload_name,
        args.seconds,
        u8::from(args.trace),
    );

    let mut setup_s = Vec::new();
    let mut setup_failures = Vec::new();
    let mut set_up = || {
        let t = Instant::now();
        let (p, failures) = Prepared::setup(args.workload, args.seed);
        setup_s.push(t.elapsed().as_secs_f64());
        setup_failures.extend(failures);
        p
    };
    for _ in 0..SETUPS / 2 {
        set_up().teardown();
    }
    let mut prepared = set_up();
    let rss_scope = if stats::reset_peak_rss() {
        "the timed phase"
    } else {
        "the whole process (no peak reset on this kernel)"
    };

    let (outcome, mut metrics, mut notes) = if args.trace {
        traced(&mut prepared, &args)
    } else {
        let out = prepared.run(args.seconds, false);
        let lat = &out.latencies_ms;
        let samples = lat.len();
        let beyond = samples - (0.9 * samples as f64).ceil() as usize;
        let metrics = vec![
            (
                "ops_per_s".to_owned(),
                out.attempted as f64 / out.wall_s,
                "1/s",
            ),
            ("op_ms_p50".to_owned(), median(lat), "ms"),
            ("op_ms_p90".to_owned(), quantile(lat, 0.9), "ms"),
        ];
        // Peak RSS and the error rate are printed as notes, not among the
        // JSON metrics: the peak is bimodal from run to run on one seed
        // (heap fragmentation), and the error rate is 0 on correct code
        // and travels as `failed`/`attempted`.
        let notes = vec![format!(
            "# {}: op_ms_p90 over {samples} samples ({beyond} beyond it{}); \
             peak_rss_mb={} over {rss_scope}",
            args.workload_name,
            if beyond >= 10 {
                ""
            } else {
                ", fewer than 10: p90 is indicative only"
            },
            num(peak_rss_mb()),
        )];
        (out, metrics, notes)
    };
    prepared.teardown();
    for _ in 0..SETUPS - SETUPS / 2 - 1 {
        set_up().teardown();
    }

    let failed = outcome.failed + setup_failures.len() as u64;
    if !args.trace {
        metrics.push(("setup_s".to_owned(), median(&setup_s), "s"));
        notes.push(format!(
            "# error_rate={} ({failed} of {} ops failed)",
            num(failed as f64 / outcome.attempted.max(1) as f64),
            outcome.attempted
        ));
    }
    for line in &notes {
        println!("{line}");
    }
    for (name, value, unit) in &metrics {
        println!("# {name} = {} {unit}", num(*value));
    }
    for f in setup_failures.iter().chain(&outcome.failures) {
        println!("# FAILED: {f}");
    }
    println!(
        "{}",
        result_line(failed == 0, outcome.attempted.max(1), failed, &metrics)
    );
    ExitCode::SUCCESS
}

/// The traced run: half the time untraced, half traced, then the
/// per-layer ledger over the workload's probe items.
fn traced(prepared: &mut Prepared, args: &Args) -> (Outcome, Vec<Metric>, Vec<String>) {
    let half = args.seconds / 2.0;
    let plain = prepared.run(half, false);
    let mut out = prepared.run(half, true);
    let peak_rss = peak_rss_mb();
    let ledger = ledger::measure(&args.workload.probe_items(args.seed));
    let mut metrics = ledger.metrics;
    metrics.push(("process.peak_rss_mb".to_owned(), peak_rss, "MiB"));

    let ops = out.attempted.max(1) as f64;
    let self_ms = out.spans.self_ms();
    for name in SPAN_NAMES {
        metrics.push((
            format!("span.{name}.self_ms_per_op"),
            self_ms.get(name).copied().unwrap_or(0.0) / ops,
            "ms",
        ));
    }
    let untraced = median(&plain.latencies_ms);
    let traced = median(&out.latencies_ms);
    metrics.push(("bench.untraced_op_ms_p50".to_owned(), untraced, "ms"));
    metrics.push(("bench.traced_op_ms_p50".to_owned(), traced, "ms"));
    metrics.push((
        "bench.tracing_overhead_ms".to_owned(),
        traced - untraced,
        "ms",
    ));

    let dir = Path::new(".bench_out");
    let file = dir.join(format!(
        "spans-{}-seed{}.json",
        args.workload_name, args.seed
    ));
    let written =
        std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&file, out.spans.to_json()));
    let mut notes = ledger.notes;
    notes.push(match written {
        Ok(()) => format!("# spans written to {}", file.display()),
        Err(e) => format!("# spans not written: {e}"),
    });
    let attempted = plain.attempted;
    let failed = plain.failed;
    out.attempted += attempted;
    out.failed += failed;
    out.failures.extend(plain.failures);
    for f in ledger.failures {
        out.fail(f);
    }
    let notes = notes
        .into_iter()
        .map(|n| {
            if n.starts_with('#') {
                n
            } else {
                format!("# {n}")
            }
        })
        .collect();
    (out, metrics, notes)
}
