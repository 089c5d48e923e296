//! Event-pipeline equivalence: the unified `Event`/`EventSink` path must
//! be observationally identical no matter how sinks are composed. A
//! [`Fanout`] of N differently-configured `AlgoProf`s over *one* live
//! execution must produce exactly the profiles of N separate live runs
//! (this is what lets `sweep` profile every ablation in a single pass),
//! and teeing a recorder in must not perturb any of them. Profiles are
//! compared per guest thread, so the threaded examples are covered too.

use algoprof::{
    profile_source_set_with, record_source_with, AlgoProf, AlgoProfOptions, EquivalenceCriterion,
    ProfileSet,
};
use algoprof_programs::{
    array_list_program, functional_sort_program, insertion_sort_program, GrowthPolicy,
    SortWorkload, LISTING3, LISTING4, LISTING5,
};
use algoprof_suite::genprog::random_program;
use algoprof_suite::testutil::TestRng;
use algoprof_suite::THREADED_EXAMPLES;
use algoprof_trace::{TraceHeader, TraceRecorder};
use algoprof_vm::{compile, Fanout, InstrumentOptions, Interp, OpStats, Tee};

const CRITERIA: [EquivalenceCriterion; 4] = [
    EquivalenceCriterion::SomeElements,
    EquivalenceCriterion::AllElements,
    EquivalenceCriterion::SameArray,
    EquivalenceCriterion::SameType,
];

fn ablation_options() -> Vec<AlgoProfOptions> {
    CRITERIA
        .iter()
        .map(|&criterion| AlgoProfOptions {
            criterion,
            ..AlgoProfOptions::default()
        })
        .collect()
}

/// The single-threaded listings corpus.
fn listings_corpus() -> Vec<(&'static str, String)> {
    vec![
        ("listing3", LISTING3.to_string()),
        ("listing4", LISTING4.to_string()),
        ("listing5", LISTING5.to_string()),
        (
            "insertion_sort_random",
            insertion_sort_program(SortWorkload::Random, 60, 10, 2),
        ),
        (
            "insertion_sort_sorted",
            insertion_sort_program(SortWorkload::Sorted, 60, 10, 2),
        ),
        (
            "functional_sort",
            functional_sort_program(SortWorkload::Random, 40, 10, 2),
        ),
        (
            "array_list_by_one",
            array_list_program(GrowthPolicy::ByOne, 60, 10, 2),
        ),
        (
            "array_list_doubling",
            array_list_program(GrowthPolicy::Doubling, 60, 10, 2),
        ),
    ]
}

/// Runs `src` once with all four criteria fanned out (recorder teed in,
/// as `sweep` composes it), returning the trace and the four profile
/// sets.
fn fanout_run(name: &str, src: &str, input: &[i64]) -> (Vec<u8>, Vec<ProfileSet>) {
    let instrument = InstrumentOptions::default();
    let program = compile(src)
        .unwrap_or_else(|e| panic!("{name}: compile failed: {e}"))
        .instrument(&instrument);
    let mut bytes = Vec::new();
    let mut sink = Tee::new(
        TraceRecorder::new(&TraceHeader::new(src, &instrument, input), &mut bytes),
        Fanout::new(
            ablation_options()
                .into_iter()
                .map(AlgoProf::with_options)
                .collect(),
        ),
    );
    Interp::new(&program)
        .with_input(input.to_vec())
        .run(&mut sink)
        .unwrap_or_else(|e| panic!("{name}: execution failed: {e}"));
    let Tee {
        a: recorder,
        b: fanout,
    } = sink;
    recorder.finish().expect("writes to a Vec<u8> cannot fail");
    let profiles = fanout
        .into_sinks()
        .into_iter()
        .map(|p| p.finish_set(&program))
        .collect();
    (bytes, profiles)
}

/// One fanned-out execution must equal four separate live runs, and the
/// teed recording must equal a pure recording run. Returns the fanned-out
/// profile sets.
fn assert_fanout_equals_separate_runs(name: &str, src: &str, input: &[i64]) -> Vec<ProfileSet> {
    let instrument = InstrumentOptions::default();
    let (trace, fanned) = fanout_run(name, src, input);
    assert_eq!(
        trace,
        record_source_with(src, &instrument, input)
            .unwrap_or_else(|e| panic!("{name}: recording failed: {e}")),
        "{name}: teed recording diverges from a pure recording"
    );
    for (options, fanned_profile) in ablation_options().into_iter().zip(&fanned) {
        let solo = profile_source_set_with(src, &instrument, options, input)
            .unwrap_or_else(|e| panic!("{name}: live profiling failed: {e}"));
        assert_eq!(
            *fanned_profile, solo,
            "{name}: fanned-out profile diverges under {:?}",
            options.criterion
        );
    }
    fanned
}

#[test]
fn listings_corpus_fanout_equals_separate_runs() {
    for (name, src) in &listings_corpus() {
        assert_fanout_equals_separate_runs(name, src, &[]);
    }
}

#[test]
fn threaded_examples_fanout_equals_separate_runs() {
    for (name, src, n) in THREADED_EXAMPLES {
        let fanned = assert_fanout_equals_separate_runs(name, src, &[n]);
        assert!(
            fanned.iter().all(ProfileSet::is_threaded),
            "{name}: expected a threaded run"
        );
    }
}

#[test]
fn random_programs_fanout_equals_separate_runs() {
    for seed in 0..100 {
        let mut rng = TestRng::new(9000 + seed);
        let src = random_program(&mut rng);
        assert_fanout_equals_separate_runs(&format!("seed {seed}"), &src, &[]);
    }
}

/// A sink that masks out instruction ticks (AlgoProf) next to one that
/// reads nothing else (OpStats): each must see exactly the stream it
/// would see alone.
#[test]
fn masked_and_instruction_sinks_share_one_run() {
    let instrument = InstrumentOptions::default();
    let options = AlgoProfOptions::default();
    for (name, src) in &listings_corpus() {
        let program = compile(src)
            .unwrap_or_else(|e| panic!("{name}: compile failed: {e}"))
            .instrument(&instrument)
            .fuse_default();
        let mut tee = Tee::new(AlgoProf::with_options(options), OpStats::new());
        Interp::new(&program)
            .run(&mut tee)
            .unwrap_or_else(|e| panic!("{name}: execution failed: {e}"));
        let mut alone = OpStats::new();
        let run = Interp::new(&program)
            .run(&mut alone)
            .unwrap_or_else(|e| panic!("{name}: execution failed: {e}"));
        assert_eq!(
            alone.total(),
            run.instructions,
            "{name}: opstats missed instruction events"
        );
        assert_eq!(
            tee.b.render_json(usize::MAX),
            alone.render_json(usize::MAX),
            "{name}: teed opstats diverge from opstats alone"
        );
        let solo = profile_source_set_with(src, &instrument, options, &[])
            .unwrap_or_else(|e| panic!("{name}: live profiling failed: {e}"));
        assert_eq!(
            tee.a.finish_set(&program),
            solo,
            "{name}: teed profile diverges from AlgoProf alone"
        );
    }
}
