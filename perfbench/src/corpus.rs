//! The guest programs the workloads run, the seeded generator that
//! picks their sizes and order, and the known answers every operation is
//! checked against.
//!
//! The known answers are closed forms, so a check never trusts the code
//! under test to say what the right answer is.

use std::sync::OnceLock;

use algoprof_fit::ComplexityClass;
use algoprof_programs::{
    sized_array_list_program, sized_insertion_sort_program, GrowthPolicy, SortWorkload,
};

/// The threaded producer/consumer example shipped with the repository.
const PRODUCER_CONSUMER: &str = include_str!("../../examples/producer_consumer.jay");

/// One guest program of the corpus. Each reads its size `n` from
/// `readInput()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Prog {
    /// Listing 6 ArrayList growing by one slot: quadratic.
    ByOne,
    /// Listing 6 ArrayList doubling its capacity: linear.
    Doubling,
    /// Listing 1 linked-list insertion sort of a reverse-sorted list.
    Isort,
    /// Producer/consumer over a shared by-one ArrayList, two threads.
    ProdCons,
}

impl Prog {
    /// The program's tag in sweeps and reports.
    pub fn name(self) -> &'static str {
        match self {
            Prog::ByOne => "byone",
            Prog::Doubling => "doubling",
            Prog::Isort => "isort",
            Prog::ProdCons => "prodcons",
        }
    }

    /// The guest source text.
    pub fn source(self) -> &'static str {
        static SOURCES: OnceLock<[String; 3]> = OnceLock::new();
        let generated = SOURCES.get_or_init(|| {
            [
                sized_array_list_program(GrowthPolicy::ByOne),
                sized_array_list_program(GrowthPolicy::Doubling),
                sized_insertion_sort_program(SortWorkload::Reversed),
            ]
        });
        match self {
            Prog::ByOne => &generated[0],
            Prog::Doubling => &generated[1],
            Prog::Isort => &generated[2],
            Prog::ProdCons => PRODUCER_CONSUMER,
        }
    }

    /// What `Main.main` returns for size `n`.
    pub fn expected_return(self, n: u64) -> i64 {
        let n = n as i64;
        match self {
            Prog::ByOne | Prog::Doubling => n,
            Prog::Isort => 0,
            // join(producer) + join(consumer) = n + (0 + 1 + ... + n-1).
            Prog::ProdCons => n + n * (n - 1) / 2,
        }
    }

    /// Algorithmic steps (loop iterations) of the checked thread: every
    /// thread for single-threaded programs, the producer thread (t1) for
    /// [`Prog::ProdCons`], whose consumer polls a number of times that
    /// depends on the scheduler.
    pub fn expected_steps(self, n: u64) -> u64 {
        match self {
            // n appends plus copies of 1 + 2 + ... + (n-1) slots.
            Prog::ByOne | Prog::ProdCons => n * (n + 1) / 2,
            // n appends plus copies of 1 + 2 + 4 + ... + next_pow2(n)/2.
            Prog::Doubling => n + n.next_power_of_two() - 1,
            // construction + outer pass are n each; the inner loop runs
            // once per inversion, and a reversed list has n(n-1)/2.
            Prog::Isort => 2 * n + n * (n - 1) / 2,
        }
    }

    /// The thread whose steps [`Prog::expected_steps`] counts, if not all.
    pub fn checked_thread(self) -> Option<usize> {
        (self == Prog::ProdCons).then_some(1)
    }

    /// The complexity class the program's main algorithm must fit to.
    pub fn expected_class(self) -> ComplexityClass {
        match self {
            Prog::Doubling => ComplexityClass::Linear,
            Prog::ByOne | Prog::Isort | Prog::ProdCons => ComplexityClass::Quadratic,
        }
    }

    /// The root name of the algorithm whose sweep series carries the
    /// expected class (matched as a prefix, ignoring the line suffix).
    /// `None` for the producer/consumer, whose producer loop is grouped
    /// under a different root at some sizes.
    pub fn main_algorithm(self) -> Option<&'static str> {
        match self {
            Prog::ByOne | Prog::Doubling => Some("Main.main:loop0"),
            Prog::Isort => Some("List.sort:loop0"),
            Prog::ProdCons => None,
        }
    }
}

/// One guest execution: a program at a size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Item {
    /// The program.
    pub prog: Prog,
    /// The value its `readInput()` returns.
    pub n: u64,
}

impl Item {
    /// Creates an item.
    pub fn new(prog: Prog, n: u64) -> Item {
        Item { prog, n }
    }

    /// The guest input vector.
    pub fn input(self) -> Vec<i64> {
        vec![self.n as i64]
    }
}

/// SplitMix64: the workload generator. Only sizes and order come from
/// it, never anything the checks depend on.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform value in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Shuffles `v` in place (Fisher-Yates).
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.next_u64() as usize % (i + 1);
            v.swap(i, j);
        }
    }

    /// `k` distinct values from `lo..=hi` (which must hold at least `k`),
    /// one from each of `k` equal strata, in random order. Every draw
    /// then spans the range evenly, so two draws cost about the same.
    pub fn stratified(&mut self, lo: u64, hi: u64, k: usize) -> Vec<u64> {
        let k = k as u64;
        let width = (hi - lo + 1) / k;
        let mut out: Vec<u64> = (0..k)
            .map(|s| {
                let start = lo + s * width;
                let end = if s + 1 == k { hi } else { start + width - 1 };
                self.range(start, end)
            })
            .collect();
        self.shuffle(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_forms_match_hand_counts() {
        assert_eq!(Prog::ByOne.expected_steps(1000), 500_500);
        assert_eq!(Prog::Doubling.expected_steps(1000), 2023);
        assert_eq!(Prog::Doubling.expected_steps(50_000), 115_535);
        assert_eq!(Prog::ProdCons.expected_steps(32), 528);
    }

    #[test]
    fn stratified_draws_one_value_per_stratum() {
        let mut rng = Rng::new(9, 1);
        let mut v = rng.stratified(30, 90, 5);
        v.sort_unstable();
        assert_eq!(v.len(), 5);
        for (s, n) in v.iter().enumerate() {
            let start = 30 + 12 * s as u64;
            let end = if s == 4 { 90 } else { start + 11 };
            assert!((start..=end).contains(n), "{n} outside stratum {s}");
        }
    }
}
