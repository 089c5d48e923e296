//! The per-layer ledger of a traced run: each layer's work counts and
//! time, measured from outside by timing calls into each crate's public
//! functions over the workload's probe items.
//!
//! Count metrics (events by kind, snapshot counters, `TraceStats`, cache
//! counters) are measured on every repetition and must repeat exactly;
//! events by kind must also be identical on the fused and the unfused
//! program. The byte-identity oracles are checked too: daemon text ==
//! one-shot text, and sweep JSON at `-j1` == at `-jN`. Every miss is a
//! failure of the run.

use std::time::Instant;

use algoprof::{
    profile_source_set_with, render_set, run_sweep, AlgoProf, AlgoProfOptions, JobSpec,
    SnapshotStats,
};
use algoprof_fit::{best_fit, fit_power_law, ComplexityClass};
use algoprof_serve::{client, Server, ServerAddr, ServerConfig};
use algoprof_trace::{read_header, TraceHeader, TraceRecorder, TraceReplayer, TraceStats};
use algoprof_vm::{
    compile, CompiledProgram, Event, EventCx, EventSink, InstrumentOptions, Interp, NoopSink, Value,
};

use crate::corpus::{Item, Prog};
use crate::spans::Spans;
use crate::stats::{median, median_ns, ms_since, nproc};
use crate::workloads::{
    check_profile, check_sweep, check_text, profile_spec, run_cold, sweep_config, sweep_jobs,
};

/// Repetitions of each timed layer call; the median is reported.
const REPS: usize = 3;

/// Event kinds, in [`kind_index`] order.
pub const EVENT_KINDS: [&str; 20] = [
    "method_entry",
    "method_exit",
    "loop_entry",
    "loop_back_edge",
    "loop_exit",
    "field_read",
    "field_write",
    "array_read",
    "array_write",
    "object_alloc",
    "array_alloc",
    "input_read",
    "output_write",
    "thread_spawn",
    "thread_switch",
    "thread_end",
    "lock_acquire",
    "lock_release",
    "lock_wait",
    "instruction",
];

fn kind_index(ev: &Event) -> usize {
    match ev {
        Event::MethodEntry { .. } => 0,
        Event::MethodExit { .. } => 1,
        Event::LoopEntry { .. } => 2,
        Event::LoopBackEdge { .. } => 3,
        Event::LoopExit { .. } => 4,
        Event::FieldRead { .. } => 5,
        Event::FieldWrite { .. } => 6,
        Event::ArrayRead { .. } => 7,
        Event::ArrayWrite { .. } => 8,
        Event::ObjectAlloc { .. } => 9,
        Event::ArrayAlloc { .. } => 10,
        Event::InputRead => 11,
        Event::OutputWrite => 12,
        Event::ThreadSpawn { .. } => 13,
        Event::ThreadSwitch { .. } => 14,
        Event::ThreadEnd { .. } => 15,
        Event::LockAcquire { .. } => 16,
        Event::LockRelease { .. } => 17,
        Event::LockWait { .. } => 18,
        Event::Instruction { .. } => 19,
    }
}

/// Counts events by kind.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct CountSink([u64; 20]);

impl EventSink for CountSink {
    fn event(&mut self, ev: &Event, _cx: &EventCx<'_>) {
        self.0[kind_index(ev)] += 1;
    }
}

/// A reported metric: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// The ledger under construction: metrics in print order, plus failures.
pub struct Ledger {
    /// Metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Failed checks.
    pub failures: Vec<String>,
    /// Human-readable notes (fitted classes of each layer).
    pub notes: Vec<String>,
}

impl Ledger {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_owned(), value, unit));
    }

    fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(message());
        }
    }
}

/// One probe item's layer measurements.
struct Probe {
    instructions: u64,
    dispatches: u64,
    kinds: [u64; 20],
    noop_ns: f64,
    live_ns: f64,
    finish_ns: f64,
    render_ns: f64,
    render_bytes: u64,
    snapshot: SnapshotStats,
    record_ns: f64,
    trace: TraceStats,
    replay_ns: f64,
    bytes: Vec<u8>,
}

impl Probe {
    fn events(&self) -> u64 {
        self.kinds.iter().sum()
    }
}

fn front_end(source: &str) -> Result<CompiledProgram, String> {
    Ok(compile(source)
        .map_err(|e| e.to_string())?
        .instrument(&InstrumentOptions::default()))
}

fn probe(item: Item, ledger: &mut Ledger) -> Result<Probe, String> {
    let unfused = front_end(item.prog.source())?;
    let program = unfused.clone().fuse_default();
    let input = item.input();

    let (noop_ns, result) = median_ns(REPS, || {
        Interp::new(&program)
            .with_input(input.clone())
            .run(&mut NoopSink)
    });
    let result = result.map_err(|e| e.to_string())?;
    let expected = item.prog.expected_return(item.n);
    ledger.check(result.return_value == Value::Int(expected), || {
        format!(
            "{} n={}: main returned {:?}, expected {expected}",
            item.prog.name(),
            item.n,
            result.return_value
        )
    });

    let count = |p: &CompiledProgram| -> Result<[u64; 20], String> {
        let mut sink = CountSink::default();
        Interp::new(p)
            .with_input(input.clone())
            .run(&mut sink)
            .map_err(|e| e.to_string())?;
        Ok(sink.0)
    };
    let kinds = count(&program)?;
    let again = count(&program)?;
    let plain = count(&unfused)?;
    let fused = count(&unfused.fuse())?;
    ledger.check(kinds == again, || {
        format!(
            "{} n={}: event counts differ between two runs",
            item.prog.name(),
            item.n
        )
    });
    ledger.check(plain == fused, || {
        format!(
            "{} n={}: event counts differ with and without fusion",
            item.prog.name(),
            item.n
        )
    });

    // Live profiling: the run itself, then finish and render.
    let mut live = Vec::new();
    let mut finish = Vec::new();
    let mut render = Vec::new();
    let mut snapshots = Vec::new();
    let mut render_bytes = 0;
    for _ in 0..REPS {
        let mut profiler = AlgoProf::with_options(AlgoProfOptions::default());
        let t = Instant::now();
        Interp::new(&program)
            .with_input(input.clone())
            .run(&mut profiler)
            .map_err(|e| e.to_string())?;
        live.push(t.elapsed().as_secs_f64() * 1e9);
        snapshots.push(profiler.snapshot_stats());
        let t = Instant::now();
        let set = profiler.finish_set(&program);
        finish.push(t.elapsed().as_secs_f64() * 1e9);
        let t = Instant::now();
        let text = render_set(&set);
        render.push(t.elapsed().as_secs_f64() * 1e9);
        render_bytes = text.len() as u64;
        if let Err(e) = check_profile(item, &set, &text) {
            ledger.failures.push(e);
        }
    }
    ledger.check(snapshots.windows(2).all(|w| w[0] == w[1]), || {
        format!(
            "{} n={}: snapshot counters differ between runs",
            item.prog.name(),
            item.n
        )
    });

    // Trace encode, then decode + replay.
    let source = item.prog.source();
    let header = TraceHeader::new(source, &InstrumentOptions::default(), &input);
    let mut recordings: Vec<(TraceStats, Vec<u8>)> = Vec::new();
    let (record_ns, _) = median_ns(REPS, || {
        let mut bytes = Vec::new();
        let mut recorder = TraceRecorder::new(&header, &mut bytes);
        let ran = Interp::new(&program)
            .with_input(input.clone())
            .run(&mut recorder);
        let stats = recorder.finish();
        if let (Ok(_), Ok(stats)) = (ran, stats) {
            recordings.push((stats, bytes));
        }
    });
    ledger.check(
        recordings.len() == REPS && recordings.iter().all(|r| r == &recordings[0]),
        || {
            format!(
                "{} n={}: recordings differ between runs",
                item.prog.name(),
                item.n
            )
        },
    );
    let (trace, bytes) = recordings.pop().ok_or("recording failed")?;
    let (head, events) = read_header(&bytes).map_err(|e| e.to_string())?;
    let replay_program = front_end(&head.source)?;
    let (replay_ns, replayed) = median_ns(REPS, || {
        TraceReplayer::new().replay(&replay_program, events, &mut NoopSink)
    });
    let replayed = replayed.map_err(|e| e.to_string())?;
    ledger.check(replayed.events == trace.events, || {
        format!(
            "{} n={}: replay decoded {} events, recorded {}",
            item.prog.name(),
            item.n,
            replayed.events,
            trace.events
        )
    });

    Ok(Probe {
        instructions: result.instructions,
        dispatches: result.dispatches,
        kinds,
        noop_ns,
        live_ns: median(&live),
        finish_ns: median(&finish),
        render_ns: median(&render),
        render_bytes,
        snapshot: snapshots[0],
        record_ns,
        trace,
        replay_ns,
        bytes,
    })
}

/// Measures every layer over `items` and returns the ledger.
pub fn measure(items: &[Item]) -> Ledger {
    let mut ledger = Ledger {
        metrics: Vec::new(),
        failures: Vec::new(),
        notes: Vec::new(),
    };
    let mut programs: Vec<Prog> = items.iter().map(|i| i.prog).collect();
    programs.sort_unstable();
    programs.dedup();

    // Front end, per program: compile, instrument, fuse; static analysis.
    let mut compile_ns = Vec::new();
    let mut instrument_ns = Vec::new();
    let mut fuse_ns = Vec::new();
    let mut analyze_ns = Vec::new();
    for &prog in &programs {
        let (t, compiled) = median_ns(5, || compile(prog.source()));
        compile_ns.push(t);
        let compiled = compiled.expect("corpus programs compile");
        let (t, instrumented) = median_ns(5, || compiled.instrument(&InstrumentOptions::default()));
        instrument_ns.push(t);
        fuse_ns.push(median_ns(5, || instrumented.fuse()).0);
        analyze_ns.push(median_ns(5, || algoprof_analysis::analyze_source(prog.source())).0);
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    ledger.put("vm.compile_ms", mean(&compile_ns) / 1e6, "ms");
    ledger.put("vm.instrument_ms", mean(&instrument_ns) / 1e6, "ms");
    ledger.put("vm.fuse_ms", mean(&fuse_ns) / 1e6, "ms");

    let mut probes = Vec::new();
    for &item in items {
        match probe(item, &mut ledger) {
            Ok(p) => probes.push((item, p)),
            Err(e) => ledger
                .failures
                .push(format!("{} n={}: {e}", item.prog.name(), item.n)),
        }
    }
    let sum = |f: &dyn Fn(&Probe) -> f64| probes.iter().map(|(_, p)| f(p)).sum::<f64>();
    let instructions = sum(&|p| p.instructions as f64);
    let events = sum(&|p| p.events() as f64);
    let trace_events = sum(&|p| p.trace.events as f64);
    let noop = sum(&|p| p.noop_ns);
    let live = sum(&|p| p.live_ns);
    let record_ns = sum(&|p| p.record_ns);
    ledger.put("vm.instructions", instructions, "count");
    ledger.put("vm.dispatches", sum(&|p| p.dispatches as f64), "count");
    ledger.put(
        "vm.dispatch_ns_per_instr",
        noop / instructions.max(1.0),
        "ns",
    );
    ledger.put("vm.events", events, "count");
    for (k, kind) in EVENT_KINDS.iter().enumerate() {
        ledger.put(
            &format!("vm.events.{kind}"),
            sum(&|p| p.kinds[k] as f64),
            "count",
        );
    }
    ledger.put("core.profiler.live_ms", live / 1e6, "ms");
    ledger.put(
        "core.profiler.sink_ns_per_event",
        (live - noop) / events.max(1.0),
        "ns",
    );
    let snap = |f: &dyn Fn(&SnapshotStats) -> u64| sum(&|p| f(&p.snapshot) as f64);
    let full = snap(&|s| s.full_walks);
    let hits = snap(&|s| s.cache_hits);
    let redos = snap(&|s| s.partial_redos);
    ledger.put("core.snapshot.full_walks", full, "count");
    ledger.put("core.snapshot.cache_hits", hits, "count");
    ledger.put("core.snapshot.partial_redos", redos, "count");
    ledger.put(
        "core.snapshot.objects_traversed",
        snap(&|s| s.objects_traversed),
        "count",
    );
    ledger.put(
        "core.snapshot.elements_scanned",
        snap(&|s| s.elements_scanned),
        "count",
    );
    ledger.put(
        "core.snapshot.reuse_ratio",
        (hits + redos) / (full + hits + redos).max(1.0),
        "ratio",
    );
    ledger.put("core.finish_ms", sum(&|p| p.finish_ns) / 1e6, "ms");
    ledger.put("core.report.render_ms", sum(&|p| p.render_ns) / 1e6, "ms");
    ledger.put(
        "core.report.bytes",
        sum(&|p| p.render_bytes as f64),
        "bytes",
    );
    ledger.put("analysis.analyze_ms", mean(&analyze_ns) / 1e6, "ms");
    ledger.put("trace.events", trace_events, "count");
    ledger.put("trace.bytes", sum(&|p| p.trace.total_bytes as f64), "bytes");
    ledger.put(
        "trace.record_ns_per_event",
        (record_ns - noop) / trace_events.max(1.0),
        "ns",
    );
    ledger.put(
        "trace.bytes_per_event",
        sum(&|p| p.trace.event_bytes as f64) / trace_events.max(1.0),
        "bytes",
    );
    ledger.put(
        "trace.replay_ns_per_event",
        sum(&|p| p.replay_ns) / trace_events.max(1.0),
        "ns",
    );

    sweep_layers(items, &mut ledger);
    let traces: Vec<(Item, &[u8], u64)> = probes
        .iter()
        .map(|(item, p)| (*item, p.bytes.as_slice(), p.trace.events))
        .collect();
    serve_layers(items, &traces, &mut ledger);
    dogfood(&probes, &mut ledger);
    ledger
}

/// `run_sweep` over the probe items at `-j1` and `-jN`: byte identity,
/// busy time, pool efficiency, and fit cost per series.
fn sweep_layers(items: &[Item], ledger: &mut Ledger) {
    let jobs = sweep_jobs(items);
    let workers = nproc();
    let (serial_ns, serial) = median_ns(REPS, || run_sweep(&jobs, &sweep_config(1)));
    let (wall_ns, parallel) = median_ns(REPS, || run_sweep(&jobs, &sweep_config(workers)));
    let (serial_ms, wall_ms) = (serial_ns / 1e6, wall_ns / 1e6);
    let mut series: Vec<Vec<(f64, f64)>> = Vec::new();
    match (serial, parallel) {
        (Ok(serial), Ok(parallel)) => {
            ledger.check(
                serial.render_json() == parallel.render_json()
                    && serial.render_text() == parallel.render_text(),
                || format!("sweep report at -j1 differs from -j{workers}"),
            );
            if let Err(e) = check_sweep(items, &parallel) {
                ledger.failures.push(e);
            }
            series = parallel.series.into_iter().map(|s| s.points).collect();
        }
        (Err(e), _) | (_, Err(e)) => ledger.failures.push(format!("sweep probe: {e}")),
    }

    // A -j1 sweep runs every job back to back on one worker, so its wall
    // time is the busy time the pool has to spread over its workers.
    ledger.put("core.sweep.jobs_busy_ms", serial_ms, "ms");
    ledger.put("core.sweep.wall_ms", wall_ms, "ms");
    ledger.put(
        "core.pool.efficiency",
        serial_ms / (wall_ms * workers as f64),
        "ratio",
    );

    let (ns, _) = median_ns(REPS, || {
        for points in &series {
            std::hint::black_box(best_fit(points));
        }
    });
    ledger.put(
        "fit.fit_us_per_series",
        ns / 1e3 / series.len().max(1) as f64,
        "us",
    );
}

/// What one pass of the serve probe observed.
#[derive(Debug, Default, PartialEq)]
struct ServePass {
    cache: (u64, u64, u64, u64),
    stream_events: Vec<u64>,
}

/// Drives a fresh daemon with two clients over the probe items: a cold
/// job, its resubmission, and an upload of its trace per item. Run twice;
/// the cache counters and decoded event counts must repeat.
fn serve_layers(items: &[Item], traces: &[(Item, &[u8], u64)], ledger: &mut Ledger) {
    // The one-shot text and JobSpec::execute time of every spec.
    let mut expected: Vec<(JobSpec, String, f64)> = Vec::new();
    for &item in items {
        let spec = profile_spec(item, AlgoProfOptions::default());
        let one_shot = profile_source_set_with(
            item.prog.source(),
            &InstrumentOptions::default(),
            AlgoProfOptions::default(),
            &item.input(),
        )
        .map(|set| render_set(&set));
        let (ns, out) = median_ns(REPS, || spec.execute());
        match (one_shot, out) {
            (Ok(text), Ok(out)) => {
                ledger.check(out.text == text, || {
                    format!(
                        "{} n={}: JobSpec::execute differs from one-shot",
                        item.prog.name(),
                        item.n
                    )
                });
                expected.push((spec, text, ns / 1e6));
            }
            _ => ledger.failures.push(format!(
                "{} n={}: one-shot failed",
                item.prog.name(),
                item.n
            )),
        }
    }

    let mut hit_rtt = Vec::new();
    let mut queue_wait = Vec::new();
    let mut exec = Vec::new();
    let mut overhead = Vec::new();
    let mut rejected = 0u64;
    let mut passes = Vec::new();
    for _ in 0..2 {
        let config = ServerConfig {
            workers: nproc(),
            cache_dir: None,
            ..ServerConfig::default()
        };
        let server = Server::start("127.0.0.1:0", config).expect("binds an ephemeral port");
        let addr = ServerAddr::Tcp(server.addr().expect("TCP daemon").to_string());
        let results: Vec<Vec<Result<ServeSample, String>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|c| {
                    let addr = &addr;
                    let mine: Vec<_> = expected.iter().skip(c).step_by(2).collect();
                    let uploads: Vec<_> = traces.iter().skip(c).step_by(2).collect();
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        for (spec, text, local_ms) in mine {
                            out.push(serve_item(addr, spec, text, *local_ms));
                        }
                        for (item, bytes, events) in uploads {
                            out.push(
                                client::stream_trace(addr, &mut &bytes[..], "")
                                    .map_err(|e| e.to_string())
                                    .and_then(|r| {
                                        check_text(*item, &r.text)?;
                                        Ok(ServeSample::Stream(r.events, *events))
                                    }),
                            );
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("serve probe client panicked"))
                .collect()
        });
        let stats = client::cache_stats(&addr);
        server.shutdown();
        let mut pass = ServePass::default();
        for sample in results.into_iter().flatten() {
            match sample {
                Ok(ServeSample::Job {
                    overhead: extra,
                    wait,
                    run,
                    rtt,
                }) => {
                    overhead.push(extra);
                    queue_wait.push(wait);
                    exec.push(run);
                    hit_rtt.push(rtt);
                }
                Ok(ServeSample::Stream(got, want)) => {
                    ledger.check(got == want, || {
                        format!("upload decoded {got} events, recorded {want}")
                    });
                    pass.stream_events.push(got);
                }
                Err(e) => {
                    if e.contains("503") {
                        rejected += 1;
                    }
                    ledger.failures.push(format!("serve probe: {e}"));
                }
            }
        }
        match stats {
            Ok(s) => pass.cache = (s.entries, s.hits, s.misses, s.stores),
            Err(e) => ledger.failures.push(format!("cache stats: {e}")),
        }
        passes.push(pass);
    }
    ledger.check(passes[0] == passes[1], || {
        format!(
            "serve counters differ between two runs: {:?} vs {:?}",
            passes[0], passes[1]
        )
    });
    let (_, hits, misses, stores) = passes[0].cache;
    ledger.put("serve.hit_rtt_ms_p50", median(&hit_rtt), "ms");
    ledger.put("serve.queue_wait_ms_p50", median(&queue_wait), "ms");
    ledger.put("serve.exec_ms_p50", median(&exec), "ms");
    ledger.put("serve.http_overhead_ms", median(&overhead), "ms");
    ledger.put("serve.rejected", rejected as f64, "count");
    ledger.put("serve.cache.hits", hits as f64, "count");
    ledger.put("serve.cache.misses", misses as f64, "count");
    ledger.put("serve.cache.stores", stores as f64, "count");
    ledger.put(
        "serve.cache.hit_ratio",
        hits as f64 / ((hits + misses) as f64).max(1.0),
        "ratio",
    );
}

/// One serve-probe observation (all times in ms).
enum ServeSample {
    /// A cold job and its resubmission.
    Job {
        /// Cold latency minus `JobSpec::execute` of the same spec.
        overhead: f64,
        /// Queue wait and execution seen through status polls.
        wait: f64,
        run: f64,
        /// Round trip of the cache-hit resubmission.
        rtt: f64,
    },
    /// An upload: events decoded, events recorded.
    Stream(u64, u64),
}

/// A cold job, then its resubmission. Both answers must equal the
/// one-shot text byte for byte; `local_ms` is the spec's
/// `JobSpec::execute` time without the daemon.
fn serve_item(
    addr: &ServerAddr,
    spec: &JobSpec,
    text: &str,
    local_ms: f64,
) -> Result<ServeSample, String> {
    let mut spans = Spans::new(false, Instant::now());
    let t = Instant::now();
    let (got, (wait, run)) = run_cold(addr, spec, &mut spans, 0)?;
    let latency = ms_since(t);
    if got != text {
        return Err("daemon text differs from one-shot text".into());
    }
    let t = Instant::now();
    let sub = client::submit(addr, spec).map_err(|e| e.to_string())?;
    let status = client::status(addr, &sub.id).map_err(|e| e.to_string())?;
    let rtt = ms_since(t);
    if sub.cache != "hit" || status.output.map(|o| o.text).as_deref() != Some(text) {
        return Err("resubmission was not a byte-identical cache hit".into());
    }
    Ok(ServeSample::Job {
        overhead: latency - local_ms,
        wait,
        run,
        rtt,
    })
}

/// Dogfooding: fits each layer's ⟨events, ns⟩ series across the probe
/// sizes of each program and flags layers that fit superlinear in
/// events. Reported, not gated.
fn dogfood(probes: &[(Item, Probe)], ledger: &mut Ledger) {
    type Series = fn(&Probe) -> (u64, f64);
    let layers: [(&str, Series); 6] = [
        ("vm.dispatch", |p| (p.instructions, p.noop_ns)),
        ("core.profiler", |p| (p.events(), p.live_ns - p.noop_ns)),
        ("core.finish", |p| (p.events(), p.finish_ns)),
        ("core.report", |p| (p.events(), p.render_ns)),
        ("trace.record", |p| {
            (p.trace.events, p.record_ns - p.noop_ns)
        }),
        ("trace.replay", |p| (p.trace.events, p.replay_ns)),
    ];
    let mut programs: Vec<Prog> = probes.iter().map(|(i, _)| i.prog).collect();
    programs.dedup();
    let mut superlinear = 0;
    for (name, series) in layers {
        for &prog in &programs {
            let points: Vec<(f64, f64)> = probes
                .iter()
                .filter(|(i, _)| i.prog == prog)
                .map(|(_, p)| {
                    let (x, y) = series(p);
                    (x as f64, y)
                })
                .collect();
            let class = best_fit(&points).map(|f| f.model.complexity_class());
            let exponent = fit_power_law(&points).map_or(f64::NAN, |f| f.exponent);
            // Four timed points let BIC pick a high-order model from
            // noise alone, so a layer is flagged only when the power law
            // agrees that it grows faster than linear.
            let flag = class.is_some_and(|c| c > ComplexityClass::Linear) && exponent > 1.1;
            superlinear += u64::from(flag);
            ledger.notes.push(format!(
                "dogfood: {name} on {}: ns vs events fits {} (power law n^{exponent:.2}){}",
                prog.name(),
                class.map_or("(no fit)", |c| c.big_o()),
                if flag { "  [SUPERLINEAR]" } else { "" }
            ));
        }
    }
    ledger.put("dogfood.superlinear_layers", superlinear as f64, "count");
}
