//! The two closed-loop workloads and the checks every operation must
//! pass.
//!
//! * `sweep-list` — `run_sweep` at `-j1` with all four criteria, then
//!   `render_json` + `render_text`, over the linked-list insertion sort,
//!   the threaded producer/consumer and the doubling ArrayList. One op is
//!   one whole sweep: it drives the single-pass `Tee(recorder, Fanout x4)`,
//!   trace encode, static cross-validation, fitting, rendering and
//!   per-thread profiling, and snapshot sizing by full walks rather than
//!   partial redos. (The pool at `-j nproc` is timed by the ledger.)
//! * `serve-mixed` — an in-process daemon without a cache dir (every run
//!   starts cold), one worker, one client. Equal parts of cold `Profile`
//!   jobs on distinct small inputs, resubmissions answered from cache,
//!   and chunked trace uploads recorded at set-up: the HTTP, queue, cache,
//!   JSON and trace-decode layers do most of the work, and hits next to
//!   misses expose a cache change that helps one and hurts the other.
//!
//! Both timed loops keep one guest execution running at a time, so a
//! host that lends the benchmark fewer cores than `nproc` for a while
//! slows them by its single-core speed only, not by a lost core.
//!
//! The seed sets sizes and order only; every check compares against a
//! known answer from [`crate::corpus`].

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use algoprof::{
    run_sweep, AlgoProfOptions, ArraySizeStrategy, EquivalenceCriterion, JobSpec, ProfileSet,
    SweepAblation, SweepConfig, SweepJob, SweepReport,
};
use algoprof_fit::best_fit;
use algoprof_serve::{client, Server, ServerAddr, ServerConfig};
use algoprof_trace::{TraceHeader, TraceRecorder};
use algoprof_vm::{compile, InstrumentOptions, Interp};

use crate::corpus::{Item, Prog, Rng};
use crate::spans::Spans;
use crate::stats::ms_since;

/// The four snapshot equivalence criteria, as the CLI names them.
pub const CRITERIA: [(&str, EquivalenceCriterion); 4] = [
    ("some", EquivalenceCriterion::SomeElements),
    ("all", EquivalenceCriterion::AllElements),
    ("array", EquivalenceCriterion::SameArray),
    ("type", EquivalenceCriterion::SameType),
];

/// How often a serve client polls a job's status. Fine enough to resolve
/// a cold job (a few ms) and far below `client::wait`'s fixed 15 ms.
/// Polling every 1 or 2 ms instead did not lower op latency on a
/// 2-vCPU host (two clients, two workers), so the polls do not slow the
/// jobs they time.
pub const POLL_INTERVAL: Duration = Duration::from_micros(500);

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Whole multi-program sweeps.
    SweepList,
    /// A mixed daemon load.
    ServeMixed,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "sweep-list" => Some(Workload::SweepList),
            "serve-mixed" => Some(Workload::ServeMixed),
            _ => None,
        }
    }

    /// Probe items for the per-layer ledger: four sizes of each program
    /// the workload runs, one from each quarter of a range that spans
    /// the workload's sizes (widened to a factor of two or more, so each
    /// layer's cost can be fitted against its input). Doubling lists
    /// stay within one power-of-two band, where their steps are linear.
    pub fn probe_items(self, seed: u64) -> Vec<Item> {
        let mut rng = Rng::new(seed, 7);
        let ranges: &[(Prog, u64, u64)] = match self {
            Workload::SweepList => &[
                (Prog::Isort, 20, ISORT.1),
                (Prog::ProdCons, PRODCONS.0, PRODCONS.1),
                (Prog::Doubling, SWEEP_DOUBLING.0, SWEEP_DOUBLING.1),
            ],
            Workload::ServeMixed => &[
                (Prog::ByOne, UPLOAD_BYONE.0 / 2, UPLOAD_BYONE.1),
                (Prog::Doubling, COLD_DOUBLING.0, COLD_DOUBLING.1),
            ],
        };
        let mut items = Vec::new();
        for &(prog, lo, hi) in ranges {
            let quarter = (hi - lo + 1) / 4;
            for q in 0..4 {
                let start = lo + q * quarter;
                items.push(Item::new(prog, rng.range(start, start + quarter - 1)));
            }
        }
        items
    }
}

/// What one timed phase measured.
#[derive(Debug)]
pub struct Outcome {
    /// Latency of every attempted op, ms.
    pub latencies_ms: Vec<f64>,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed or whose output failed a check.
    pub failed: u64,
    /// Wall time of the phase, s.
    pub wall_s: f64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Spans recorded (empty unless traced).
    pub spans: Spans,
}

impl Outcome {
    fn new(traced: bool, origin: Instant) -> Outcome {
        Outcome {
            latencies_ms: Vec::new(),
            attempted: 0,
            failed: 0,
            wall_s: 0.0,
            failures: Vec::new(),
            spans: Spans::new(traced, origin),
        }
    }

    fn record(&mut self, latency_ms: f64, result: Result<(), String>) {
        self.latencies_ms.push(latency_ms);
        self.attempted += 1;
        if let Err(e) = result {
            self.fail(e);
        }
    }

    /// Counts a failed check that is not tied to one op.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(message);
        }
    }
}

/// A set-up workload, ready to run timed phases.
pub enum Prepared {
    /// See [`Workload::SweepList`].
    SweepList(SweepList),
    /// See [`Workload::ServeMixed`].
    ServeMixed(ServeMixed),
}

impl Prepared {
    /// Generates the seeded inputs, records traces, starts the daemon and
    /// warms up. Failed warm-up ops are returned as failures.
    pub fn setup(workload: Workload, seed: u64) -> (Prepared, Vec<String>) {
        match workload {
            Workload::SweepList => {
                let (w, f) = SweepList::setup(seed);
                (Prepared::SweepList(w), f)
            }
            Workload::ServeMixed => {
                let (w, f) = ServeMixed::setup(seed);
                (Prepared::ServeMixed(w), f)
            }
        }
    }

    /// Runs the closed loop for `seconds`, recording spans if `traced`.
    pub fn run(&mut self, seconds: f64, traced: bool) -> Outcome {
        match self {
            Prepared::SweepList(w) => w.run(seconds, traced),
            Prepared::ServeMixed(w) => w.run(seconds, traced),
        }
    }

    /// Stops whatever the set-up started.
    pub fn teardown(self) {
        if let Prepared::ServeMixed(w) = self {
            w.server.shutdown();
        }
    }
}

/// Runs `op(k)` for k = 0, 1, ... until `seconds` have passed.
fn closed_loop(
    seconds: f64,
    out: &mut Outcome,
    mut op: impl FnMut(u64, &mut Outcome) -> Result<(), String>,
) {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut k = 0;
    while Instant::now() < deadline {
        let t = Instant::now();
        let result = op(k, out);
        out.record(ms_since(t), result);
        k += 1;
    }
    out.wall_s = start.elapsed().as_secs_f64();
}

/// Steps the checked thread(s) of `set` took.
fn profile_steps(prog: Prog, set: &ProfileSet) -> u64 {
    set.threads()
        .iter()
        .enumerate()
        .filter(|(t, _)| prog.checked_thread().is_none_or(|c| c == *t))
        .flat_map(|(_, p)| p.algorithms())
        .map(|a| a.total_costs.steps())
        .sum()
}

/// Checks a one-shot profile and its rendered text against the closed
/// form for `item`; returns the steps measured.
pub fn check_profile(item: Item, set: &ProfileSet, text: &str) -> Result<u64, String> {
    let expected = item.prog.expected_steps(item.n);
    let steps = profile_steps(item.prog, set);
    if steps != expected {
        return Err(format!(
            "{} n={}: profile has {steps} steps, expected {expected}",
            item.prog.name(),
            item.n
        ));
    }
    check_text(item, text)?;
    Ok(steps)
}

/// Checks that a rendered single-thread report's algorithms add up to
/// the closed-form step total. (Threaded reports repeat each thread's
/// algorithms in a merged view; their steps are checked on the profile.)
pub fn check_text(item: Item, text: &str) -> Result<(), String> {
    if item.prog.checked_thread().is_some() {
        return Ok(());
    }
    let expected = item.prog.expected_steps(item.n);
    let shown: u64 = text
        .lines()
        .filter_map(|l| l.trim().strip_prefix("total steps: "))
        .filter_map(|v| v.parse::<u64>().ok())
        .sum();
    if shown != expected {
        return Err(format!(
            "{} n={}: report shows {shown} total steps, expected {expected}",
            item.prog.name(),
            item.n
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------- sweep-list

/// Size ranges of the `sweep-list` corpus.
const ISORT: (u64, u64) = (30, 90);
const PRODCONS: (u64, u64) = (48, 128);
/// One power-of-two band, so the doubling list's steps are exactly
/// linear in n (n + 2047) and the fit must say O(n).
const SWEEP_DOUBLING: (u64, u64) = (1025, 2048);

/// State of the `sweep-list` workload: one corpus per op.
pub struct SweepList {
    plans: Vec<Vec<Item>>,
    next: usize,
}

/// The four-criteria sweep configuration at `workers`.
pub fn sweep_config(workers: usize) -> SweepConfig {
    SweepConfig {
        ablations: CRITERIA
            .iter()
            .map(|&(name, criterion)| SweepAblation {
                name: name.to_owned(),
                options: AlgoProfOptions {
                    criterion,
                    ..AlgoProfOptions::default()
                },
            })
            .collect(),
        workers,
        progress: false,
        program: "corpus".to_owned(),
    }
}

/// Sweep jobs for `items`, tagged by program.
pub fn sweep_jobs(items: &[Item]) -> Vec<SweepJob> {
    items
        .iter()
        .map(|it| SweepJob::for_program_size(it.prog.name(), it.prog.source(), it.n))
        .collect()
}

impl SweepList {
    fn setup(seed: u64) -> (SweepList, Vec<String>) {
        let mut rng = Rng::new(seed, 2);
        let plans: Vec<Vec<Item>> = (0..1000).map(|_| Self::draw(&mut rng)).collect();
        let mut failures = Vec::new();
        let mut spans = Spans::new(false, Instant::now());
        if let Err(e) = sweep_op(&plans[plans.len() - 1], &mut spans, 0) {
            failures.push(e);
        }
        (SweepList { plans, next: 0 }, failures)
    }

    /// One op's corpus: fresh sizes for every program, one from each
    /// fifth of its range, so every op does about the same work.
    fn draw(rng: &mut Rng) -> Vec<Item> {
        let mut items = Vec::new();
        for (prog, (lo, hi), k) in [
            (Prog::Isort, ISORT, 5),
            (Prog::ProdCons, PRODCONS, 5),
            (Prog::Doubling, SWEEP_DOUBLING, 5),
        ] {
            items.extend(
                rng.stratified(lo, hi, k)
                    .into_iter()
                    .map(|n| Item::new(prog, n)),
            );
        }
        rng.shuffle(&mut items);
        items
    }

    fn run(&mut self, seconds: f64, traced: bool) -> Outcome {
        let mut out = Outcome::new(traced, Instant::now());
        let plans = &self.plans;
        let next = &mut self.next;
        closed_loop(seconds, &mut out, |k, out| {
            let items = &plans[*next % plans.len()];
            *next += 1;
            sweep_op(items, &mut out.spans, k)
        });
        out
    }
}

/// One `algoprof sweep -j1` over the corpus: sweep, render, check.
fn sweep_op(items: &[Item], spans: &mut Spans, op: u64) -> Result<(), String> {
    spans.time("op", op, |spans| {
        let jobs = sweep_jobs(items);
        let report = spans
            .time("core.sweep", op, |_| run_sweep(&jobs, &sweep_config(1)))
            .map_err(|e| e.to_string())?;
        let (json, text) = spans.time("core.report", op, |_| {
            (report.render_json(), report.render_text())
        });
        spans.time("bench.check", op, |_| {
            check_sweep(items, &report)?;
            if !json.starts_with('{') || !text.starts_with("sweep report") {
                return Err("sweep renderings are malformed".into());
            }
            Ok(())
        })
    })
}

/// Checks every job's steps against the closed forms, and every
/// program's class per ablation: by the sweep's own fit of the program's
/// main algorithm or, for the producer/consumer (whose producer loop is
/// grouped under another root at some sizes, so no one series holds
/// every size), by a fit of the producer thread's steps per job.
pub fn check_sweep(items: &[Item], report: &SweepReport) -> Result<(), String> {
    let mut steps_by: BTreeMap<(Prog, &str), Vec<(f64, f64)>> = BTreeMap::new();
    for (item, job) in items.iter().zip(&report.jobs) {
        let expected = item.prog.expected_steps(item.n);
        for run in &job.runs {
            let steps = match item.prog.checked_thread() {
                None => run.total_steps,
                Some(t) => report
                    .series
                    .iter()
                    .filter(|s| {
                        s.program == item.prog.name()
                            && s.thread == Some(t)
                            && s.ablation == run.ablation
                    })
                    .flat_map(|s| &s.points)
                    .filter(|p| p.0 == item.n as f64)
                    .map(|p| p.1 as u64)
                    .sum(),
            };
            if steps != expected {
                return Err(format!(
                    "sweep {} n={} [{}]: {steps} steps, expected {expected}",
                    item.prog.name(),
                    item.n,
                    run.ablation
                ));
            }
            steps_by
                .entry((item.prog, run.ablation.as_str()))
                .or_default()
                .push((item.n as f64, steps as f64));
        }
    }
    for ((prog, ablation), points) in &steps_by {
        let fit = match prog.main_algorithm() {
            Some(root) => report
                .series
                .iter()
                .find(|s| {
                    s.program == prog.name()
                        && s.ablation == *ablation
                        && s.thread.is_none()
                        && s.algorithm.starts_with(root)
                })
                .and_then(|s| s.fit),
            None => best_fit(points),
        };
        let class = fit.map(|f| f.model.complexity_class());
        if class != Some(prog.expected_class()) {
            return Err(format!(
                "sweep {} [{ablation}]: fits {class:?}, expected {:?}",
                prog.name(),
                prog.expected_class()
            ));
        }
    }
    Ok(())
}

// --------------------------------------------------------------- serve-mixed

/// Sizes of the cold jobs: small, distinct inputs within one
/// power-of-two band, as for `sweep-list`. With eight option variants
/// they give 16 384 distinct jobs, far more than a run completes, so the
/// cold mix is the same however fast the host is.
const COLD_DOUBLING: (u64, u64) = (2049, 4096);
/// Sizes of the by-one trace recorded for uploads. The ranges are
/// narrow so that an upload costs about the same on every seed.
const UPLOAD_BYONE: (u64, u64) = (295, 305);
/// Sizes of the doubling trace recorded for uploads.
const UPLOAD_DOUBLING: (u64, u64) = (18_000, 18_500);

/// A trace recorded at set-up, uploaded by stream ops.
pub struct Recorded {
    /// What was recorded.
    pub item: Item,
    /// The APTR bytes.
    pub bytes: Vec<u8>,
    /// Events the recorder encoded.
    pub events: u64,
}

/// Records `item`'s trace the way `algoprof record` does.
pub fn record(item: Item) -> Result<Recorded, String> {
    let source = item.prog.source();
    let instrument = InstrumentOptions::default();
    let program = compile(source)
        .map_err(|e| e.to_string())?
        .instrument(&instrument)
        .fuse_default();
    let mut bytes = Vec::new();
    let mut recorder = TraceRecorder::new(
        &TraceHeader::new(source, &instrument, &item.input()),
        &mut bytes,
    );
    Interp::new(&program)
        .with_input(item.input())
        .run(&mut recorder)
        .map_err(|e| e.to_string())?;
    let stats = recorder.finish().map_err(|e| e.to_string())?;
    Ok(Recorded {
        item,
        bytes,
        events: stats.events,
    })
}

/// A `Profile` job spec for `item` under `options`.
pub fn profile_spec(item: Item, options: AlgoProfOptions) -> JobSpec {
    JobSpec::Profile {
        program: item.prog.name().to_owned(),
        source: item.prog.source().to_owned(),
        input: item.input(),
        options,
    }
}

/// State of the `serve-mixed` workload: the daemon and its one client.
pub struct ServeMixed {
    server: Server,
    addr: ServerAddr,
    /// Distinct cold jobs, consumed in order through `cursor`.
    cold: Vec<(Item, AlgoProfOptions)>,
    cursor: usize,
    traces: Vec<Recorded>,
    /// Specs the client has completed, with their output text.
    done: Vec<(JobSpec, String)>,
    rng: Rng,
    /// Op kinds left in the current block.
    plan: Vec<ServeOp>,
}

/// The kinds of serve op.
#[derive(Debug, Clone, Copy)]
enum ServeOp {
    Cold,
    Hit,
    /// Upload of the trace at this index.
    Stream(usize),
}

impl ServeMixed {
    fn setup(seed: u64) -> (ServeMixed, Vec<String>) {
        let mut rng = Rng::new(seed, 3);
        let mut cold = Vec::new();
        for &(_, criterion) in &CRITERIA {
            for array_strategy in [
                ArraySizeStrategy::Capacity,
                ArraySizeStrategy::UniqueElements,
            ] {
                let options = AlgoProfOptions {
                    criterion,
                    array_strategy,
                    ..AlgoProfOptions::default()
                };
                for n in COLD_DOUBLING.0..=COLD_DOUBLING.1 {
                    cold.push((Item::new(Prog::Doubling, n), options));
                }
            }
        }
        rng.shuffle(&mut cold);

        let mut failures = Vec::new();
        let mut traces = Vec::new();
        for item in [
            Item::new(Prog::ByOne, rng.range(UPLOAD_BYONE.0, UPLOAD_BYONE.1)),
            Item::new(
                Prog::Doubling,
                rng.range(UPLOAD_DOUBLING.0, UPLOAD_DOUBLING.1),
            ),
        ] {
            match record(item) {
                Ok(r) => traces.push(r),
                Err(e) => failures.push(format!("recording {}: {e}", item.prog.name())),
            }
        }

        // One worker: the single client has at most one job in flight.
        let config = ServerConfig {
            workers: 1,
            cache_dir: None,
            ..ServerConfig::default()
        };
        let server = Server::start("127.0.0.1:0", config).expect("binds an ephemeral port");
        let addr = ServerAddr::Tcp(server.addr().expect("TCP daemon").to_string());
        let mut serve = ServeMixed {
            server,
            addr,
            cold,
            cursor: 0,
            traces,
            done: Vec::new(),
            rng: Rng::new(seed, 4),
            plan: Vec::new(),
        };
        // Warm-up: one cold job (its spec becomes the first hit
        // candidate) and one upload of each trace.
        let mut warm = Outcome::new(false, Instant::now());
        let mut ops = vec![ServeOp::Cold];
        ops.extend((0..serve.traces.len()).map(ServeOp::Stream));
        for (k, op) in ops.into_iter().enumerate() {
            if let Err(e) = serve.op(op, &mut warm, k as u64) {
                failures.push(e);
            }
        }
        (serve, failures)
    }

    fn run(&mut self, seconds: f64, traced: bool) -> Outcome {
        let mut out = Outcome::new(traced, Instant::now());
        closed_loop(seconds, &mut out, |id, out| {
            if self.plan.is_empty() {
                // No measured daemon session exists, so the mix is
                // assumed: equal parts of the three op kinds (the uploads
                // split evenly between the traces), shuffled in blocks.
                self.plan = vec![ServeOp::Hit, ServeOp::Cold];
                self.plan
                    .extend((0..self.traces.len()).map(ServeOp::Stream));
                self.plan.extend([ServeOp::Hit, ServeOp::Cold]);
                self.rng.shuffle(&mut self.plan);
            }
            let op = self.plan.pop().expect("refilled above");
            self.op(op, out, id)
        });
        out
    }

    fn op(&mut self, op: ServeOp, out: &mut Outcome, id: u64) -> Result<(), String> {
        let addr = &self.addr;
        let spans = &mut out.spans;
        match op {
            ServeOp::Hit if !self.done.is_empty() => spans.time("op", id, |spans| {
                let pick = self.rng.next_u64() as usize % self.done.len();
                let (spec, text) = &self.done[pick];
                let sub = spans
                    .time("serve.submit", id, |_| client::submit(addr, spec))
                    .map_err(|e| e.to_string())?;
                if sub.cache != "hit" || sub.status != "done" {
                    return Err(format!(
                        "resubmission answered {}/{}, expected done/hit",
                        sub.status, sub.cache
                    ));
                }
                let status = spans
                    .time("serve.status", id, |_| client::status(addr, &sub.id))
                    .map_err(|e| e.to_string())?;
                match status.output {
                    Some(o) if &o.text == text => Ok(()),
                    _ => Err("cache hit returned different text".into()),
                }
            }),
            ServeOp::Hit | ServeOp::Cold => {
                let Some(&(item, options)) = self.cold.get(self.cursor) else {
                    return Err("cold job pool exhausted".into());
                };
                self.cursor += 1;
                let spec = profile_spec(item, options);
                let text = spans.time("op", id, |spans| {
                    let (text, _) = run_cold(addr, &spec, spans, id)?;
                    spans.time("bench.check", id, |_| check_text(item, &text))?;
                    Ok::<_, String>(text)
                })?;
                self.done.push((spec, text));
                Ok(())
            }
            ServeOp::Stream(t) => {
                let trace = &self.traces[t];
                spans.time("op", id, |spans| {
                    let report = spans
                        .time("serve.stream", id, |_| {
                            client::stream_trace(addr, &mut trace.bytes.as_slice(), "")
                        })
                        .map_err(|e| e.to_string())?;
                    if report.events != trace.events {
                        return Err(format!(
                            "upload analyzed {} events, recorded {}",
                            report.events, trace.events
                        ));
                    }
                    spans.time("bench.check", id, |_| check_text(trace.item, &report.text))
                })
            }
        }
    }
}

/// Submits a job the daemon has not seen and polls its status every
/// [`POLL_INTERVAL`] until it is done. Returns the output text and the
/// (queue wait, execution) ms seen through the status changes.
pub fn run_cold(
    addr: &ServerAddr,
    spec: &JobSpec,
    spans: &mut Spans,
    id: u64,
) -> Result<(String, (f64, f64)), String> {
    let start = Instant::now();
    let sub = spans
        .time("serve.submit", id, |_| client::submit(addr, spec))
        .map_err(|e| e.to_string())?;
    if sub.cache != "miss" {
        return Err(format!("fresh job answered cache {}", sub.cache));
    }
    let deadline = start + Duration::from_secs(60);
    let mut started: Option<f64> = None;
    loop {
        let status = spans
            .time("serve.status", id, |_| client::status(addr, &sub.id))
            .map_err(|e| e.to_string())?;
        let now = ms_since(start);
        match status.status.as_str() {
            "queued" => {}
            "running" => {
                started.get_or_insert(now);
            }
            "done" => {
                let text = status.output.map(|o| o.text).unwrap_or_default();
                let began = started.unwrap_or(now);
                return Ok((text, (began, now - began)));
            }
            other => {
                return Err(format!(
                    "job {} ended {other}: {}",
                    sub.id,
                    status.error.unwrap_or_default()
                ))
            }
        }
        if Instant::now() > deadline {
            return Err(format!("job {} did not finish within 60 s", sub.id));
        }
        std::thread::sleep(POLL_INTERVAL);
    }
}
