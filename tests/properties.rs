//! Randomized property tests spanning the VM and the profiler.
//!
//! Each test derives its cases deterministically from [`TestRng`], so
//! the suite needs no external property-testing crate and every failure
//! reproduces exactly.

use std::collections::BTreeMap;

use algoprof::{AccessOp, CostKey, CostMap, InputId};
use algoprof_suite::testutil::TestRng;
use algoprof_vm::{compile, ClassId, InstrumentOptions, Interp, NoopProfiler};

// ---------------------------------------------------------------------
// Guest arithmetic agrees with host arithmetic.
// ---------------------------------------------------------------------

/// A small expression AST we can both render to jay and evaluate in Rust.
#[derive(Debug, Clone)]
enum Expr {
    Lit(i32),
    Add(Box<Expr>, Box<Expr>),
    Sub(Box<Expr>, Box<Expr>),
    Mul(Box<Expr>, Box<Expr>),
}

impl Expr {
    fn render(&self) -> String {
        match self {
            Expr::Lit(v) => {
                if *v < 0 {
                    format!("(0 - {})", -(*v as i64))
                } else {
                    v.to_string()
                }
            }
            Expr::Add(a, b) => format!("({} + {})", a.render(), b.render()),
            Expr::Sub(a, b) => format!("({} - {})", a.render(), b.render()),
            Expr::Mul(a, b) => format!("({} * {})", a.render(), b.render()),
        }
    }

    fn eval(&self) -> i64 {
        match self {
            Expr::Lit(v) => *v as i64,
            Expr::Add(a, b) => a.eval().wrapping_add(b.eval()),
            Expr::Sub(a, b) => a.eval().wrapping_sub(b.eval()),
            Expr::Mul(a, b) => a.eval().wrapping_mul(b.eval()),
        }
    }
}

fn gen_expr(rng: &mut TestRng, depth: usize) -> Expr {
    if depth == 0 || rng.chance(1, 3) {
        return Expr::Lit(rng.range_i64(-1000, 1000) as i32);
    }
    let a = Box::new(gen_expr(rng, depth - 1));
    let b = Box::new(gen_expr(rng, depth - 1));
    match rng.below(3) {
        0 => Expr::Add(a, b),
        1 => Expr::Sub(a, b),
        _ => Expr::Mul(a, b),
    }
}

#[test]
fn guest_arithmetic_matches_host() {
    for seed in 0..64 {
        let mut rng = TestRng::new(seed);
        let expr = gen_expr(&mut rng, 4);
        let src = format!(
            "class Main {{ static int main() {{ return {}; }} }}",
            expr.render()
        );
        let program = compile(&src).expect("compiles");
        let result = Interp::new(&program).run(&mut NoopProfiler).expect("runs");
        assert_eq!(
            result.return_value.as_int(),
            Some(expr.eval()),
            "expr: {}",
            expr.render()
        );
    }
}

#[test]
fn instrumentation_preserves_results() {
    for seed in 0..64 {
        let mut rng = TestRng::new(1000 + seed);
        let expr = gen_expr(&mut rng, 4);
        let n = rng.below(20);
        // Wrap the expression in a loop so instrumentation has something
        // to rewrite; the instrumented program must compute the same
        // value.
        let src = format!(
            "class Main {{ static int main() {{
                int s = 0;
                for (int i = 0; i < {n}; i = i + 1) {{ s = s + {}; }}
                return s;
             }} }}",
            expr.render()
        );
        let plain = compile(&src).expect("compiles");
        let inst = plain.instrument(&InstrumentOptions::default());
        let a = Interp::new(&plain)
            .run(&mut NoopProfiler)
            .expect("plain runs");
        let b = Interp::new(&inst)
            .run(&mut NoopProfiler)
            .expect("instrumented runs");
        assert_eq!(a.return_value, b.return_value);
    }
}

#[test]
fn loop_events_balance_for_arbitrary_bounds() {
    for seed in 0..64 {
        let mut rng = TestRng::new(2000 + seed);
        let outer = rng.below(8);
        let inner = rng.below(8);
        let brk = if rng.chance(1, 2) {
            Some(rng.below(8))
        } else {
            None
        };
        // A nest with an optional break: entries always equal exits, and
        // the profiler's step count equals the executed back edges.
        let break_stmt = match brk {
            Some(b) => format!("if (j == {b}) {{ break; }}"),
            None => String::new(),
        };
        let src = format!(
            "class Main {{ static int main() {{
                int s = 0;
                for (int i = 0; i < {outer}; i = i + 1) {{
                    for (int j = 0; j < {inner}; j = j + 1) {{
                        {break_stmt}
                        s = s + 1;
                    }}
                }}
                return s;
             }} }}"
        );
        let program = compile(&src)
            .expect("compiles")
            .instrument(&InstrumentOptions::default());

        #[derive(Default)]
        struct Balance {
            entries: i64,
            exits: i64,
            backs: u64,
        }
        impl algoprof_vm::EventSink for Balance {
            fn event(&mut self, ev: &algoprof_vm::Event, _cx: &algoprof_vm::EventCx<'_>) {
                match ev {
                    algoprof_vm::Event::LoopEntry { .. } => self.entries += 1,
                    algoprof_vm::Event::LoopExit { .. } => self.exits += 1,
                    algoprof_vm::Event::LoopBackEdge { .. } => self.backs += 1,
                    _ => {}
                }
            }
        }
        let mut balance = Balance::default();
        let result = Interp::new(&program).run(&mut balance).expect("runs");
        assert_eq!(balance.entries, balance.exits, "every entry has an exit");
        // Every completed inner iteration (with or without a break cutting
        // the pass short) contributes one `s = s + 1` and one back edge,
        // so inner back edges equal the returned sum exactly.
        let s = result.return_value.as_int().expect("int") as u64;
        assert_eq!(balance.backs, s + outer);
    }
}

#[test]
fn profiler_step_counts_match_iterations() {
    for seed in 0..24 {
        let mut rng = TestRng::new(3000 + seed);
        let n = rng.range(1, 40);
        let src = format!(
            "class Main {{ static int main() {{
                int s = 0;
                for (int i = 0; i < {n}; i = i + 1) {{ s = s + i; }}
                return s;
             }} }}"
        );
        let profile = algoprof::profile_source(&src).expect("profiles");
        let algo = profile
            .algorithm_by_root_name("Main.main:loop0")
            .expect("loop algorithm");
        assert_eq!(algo.total_costs.steps(), n as u64);
    }
}

#[test]
fn construction_size_equals_node_count() {
    for seed in 0..24 {
        let mut rng = TestRng::new(4000 + seed);
        let n = rng.range(1, 60);
        let src = format!(
            "class Main {{ static int main() {{
                Node head = null;
                for (int i = 0; i < {n}; i = i + 1) {{
                    Node x = new Node();
                    x.next = head;
                    head = x;
                }}
                return 0;
             }} }}
             class Node {{ Node next; }}"
        );
        let profile = algoprof::profile_source(&src).expect("profiles");
        let algo = profile
            .algorithm_by_root_name("Main.main:loop0")
            .expect("construction");
        let input = profile.primary_input(algo.id).expect("input");
        assert_eq!(profile.registry().input(input).max_size, n);
        assert_eq!(algo.total_costs.creations(), n as u64);
    }
}

// ---------------------------------------------------------------------
// Fitting recovers planted models under noise.
// ---------------------------------------------------------------------

#[test]
fn fit_recovers_planted_quadratic() {
    for seed in 0..48 {
        let mut rng = TestRng::new(5000 + seed);
        let coeff = rng.range_f64(0.05, 4.0);
        let noise = rng.below(5);
        let pts: Vec<(f64, f64)> = (1..120)
            .map(|n| {
                let nf = n as f64;
                let jitter = ((n * 2654435761usize) % 1000) as f64 / 1000.0 - 0.5;
                (nf, coeff * nf * nf * (1.0 + jitter * noise as f64 / 100.0))
            })
            .collect();
        let fit = algoprof_fit::best_fit(&pts).expect("fits");
        assert_eq!(fit.model, algoprof_fit::Model::Quadratic);
        assert!(
            (fit.coeff - coeff).abs() / coeff < 0.1,
            "coeff {} vs planted {coeff}",
            fit.coeff
        );
    }
}

#[test]
fn power_law_exponent_within_tolerance() {
    for seed in 0..48 {
        let mut rng = TestRng::new(6000 + seed);
        let exp = rng.range_f64(0.5, 3.0);
        let coeff = rng.range_f64(0.1, 10.0);
        let pts: Vec<(f64, f64)> = (1..100)
            .map(|n| (n as f64, coeff * (n as f64).powf(exp)))
            .collect();
        let p = algoprof_fit::fit_power_law(&pts).expect("fits");
        assert!((p.exponent - exp).abs() < 1e-6);
        assert!((p.coeff - coeff).abs() / coeff < 1e-6);
    }
}

// ---------------------------------------------------------------------
// CostMap behaves like the ordered map it replaces.
// ---------------------------------------------------------------------

/// A random key from a small key space, so keys repeat.
fn gen_cost_key(rng: &mut TestRng) -> CostKey {
    let input = InputId(rng.below(3) as u32);
    let class = ClassId(rng.below(3) as u32);
    let op = if rng.chance(1, 2) {
        AccessOp::Read
    } else {
        AccessOp::Write
    };
    match rng.below(8) {
        0 => CostKey::Step,
        1 => CostKey::ArrayAccess { input, op },
        2 => CostKey::StructAccess { input, op },
        3 => CostKey::StructAccessByType { input, class, op },
        4 => CostKey::Creation { class },
        5 => CostKey::InputRead,
        6 => CostKey::OutputWrite,
        _ => CostKey::LockContention,
    }
}

/// A random cost map built by `bump`/`add`, with its reference map.
fn gen_cost_map(rng: &mut TestRng) -> (CostMap, BTreeMap<CostKey, u64>) {
    let mut map = CostMap::new();
    let mut reference = BTreeMap::new();
    for _ in 0..rng.range(0, 12) {
        let key = gen_cost_key(rng);
        let n = if rng.chance(1, 2) {
            map.bump(key);
            1
        } else {
            let n = rng.below(4);
            map.add(key, n);
            n
        };
        if n > 0 {
            *reference.entry(key).or_insert(0) += n;
        }
    }
    (map, reference)
}

fn assert_cost_map_matches(map: &CostMap, reference: &BTreeMap<CostKey, u64>, case: &str) {
    let entries: Vec<(CostKey, u64)> = map.iter().collect();
    let expected: Vec<(CostKey, u64)> = reference.iter().map(|(&k, &v)| (k, v)).collect();
    assert_eq!(entries, expected, "{case}: iteration order or counts");
    assert_eq!(map.is_empty(), reference.is_empty(), "{case}");
    let mut rng = TestRng::new(1);
    for _ in 0..64 {
        let key = gen_cost_key(&mut rng);
        assert_eq!(
            map.get(key),
            reference.get(&key).copied().unwrap_or(0),
            "{case}: get({key:?})"
        );
    }
    let sum = |pred: &dyn Fn(&CostKey) -> bool| -> u64 {
        reference
            .iter()
            .filter(|(k, _)| pred(k))
            .map(|(_, v)| v)
            .sum()
    };
    let is_access = |k: &CostKey, want: AccessOp| matches!(k, CostKey::StructAccess { op, .. } | CostKey::ArrayAccess { op, .. } if *op == want);
    assert_eq!(
        map.total_reads(),
        sum(&|k| is_access(k, AccessOp::Read)),
        "{case}"
    );
    assert_eq!(
        map.total_writes(),
        sum(&|k| is_access(k, AccessOp::Write)),
        "{case}"
    );
    assert_eq!(
        map.creations(),
        sum(&|k| matches!(k, CostKey::Creation { .. })),
        "{case}"
    );
    assert_eq!(map.steps(), sum(&|k| *k == CostKey::Step), "{case}");
    assert_eq!(
        map.contention(),
        sum(&|k| *k == CostKey::LockContention),
        "{case}"
    );
    let classes: Vec<ClassId> = reference
        .keys()
        .filter_map(|k| match k {
            CostKey::Creation { class } => Some(*class),
            _ => None,
        })
        .collect();
    assert_eq!(map.created_classes(), classes, "{case}");
    for i in 0..3 {
        let input = InputId(i);
        let of = |want: AccessOp| {
            sum(&|k| {
                is_access(k, want)
                    && matches!(k, CostKey::StructAccess { input: x, .. } | CostKey::ArrayAccess { input: x, .. } if *x == input)
            })
        };
        assert_eq!(map.reads_of(input), of(AccessOp::Read), "{case}");
        assert_eq!(map.writes_of(input), of(AccessOp::Write), "{case}");
        let class = ClassId(i);
        assert_eq!(
            map.creations_of(class),
            sum(&|k| *k == CostKey::Creation { class }),
            "{case}"
        );
    }
}

#[test]
fn cost_map_matches_an_ordered_map_reference() {
    for seed in 0..300 {
        let mut rng = TestRng::new(7000 + seed);
        let (mut map, mut reference) = gen_cost_map(&mut rng);
        assert_cost_map_matches(&map, &reference, &format!("seed {seed} built"));
        for step in 0..rng.range(1, 4) {
            let (other, other_ref) = gen_cost_map(&mut rng);
            map.merge(&other);
            for (k, v) in other_ref {
                *reference.entry(k).or_insert(0) += v;
            }
            assert_cost_map_matches(&map, &reference, &format!("seed {seed} merge {step}"));
            let key = gen_cost_key(&mut rng);
            map.bump(key);
            *reference.entry(key).or_insert(0) += 1;
            assert_cost_map_matches(&map, &reference, &format!("seed {seed} bump {step}"));
        }
    }
}
