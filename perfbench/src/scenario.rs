//! The workloads and their seeded input generators.
//!
//! A [`Scenario`] is everything the program under test is given: program
//! text, EDB text, a pool of interactive queries and, per updater, a pool of
//! fresh EDB facts for the rolling insert/retract window.  The seed feeds
//! only these generators; the program sees only what they produce.

use std::collections::HashSet;
use std::fmt::Write as _;

/// Disjoint pools of fresh facts every scenario carries: one per concurrent
/// updater (the churn workload has one, the coalescing measurement two).
pub const UPDATE_POOLS: usize = 2;
/// Facts an updater keeps inserted at any time (the rolling window).
pub const WINDOW: usize = 16;
/// Fresh facts per pool; an updater cycles through them, and a fact comes
/// round again only long after the window has retracted it.
const UPDATE_POOL: usize = 2048;
/// Blocks of [`QUERY_BLOCK`] in a scenario's query pool.
const QUERY_BLOCKS: usize = 50;
/// The query mix, exact in every block of 20 so that it does not vary with
/// the seed: 60% point, 35% source-bound, 5% range.
const QUERY_BLOCK: [QueryKind; 20] = {
    use QueryKind::{Point as P, Range as R, Source as S};
    [P, P, P, P, P, P, P, P, P, P, P, P, S, S, S, S, S, S, S, R]
};

/// The three shapes of interactive query.
#[derive(Debug, Clone, Copy)]
enum QueryKind {
    /// Every argument that can be bound is: at most a few answers.
    Point,
    /// The source is bound, the rest free.
    Source,
    /// A side constraint selects on the order of a thousand rows.
    Range,
}

/// What a run of a workload does with its scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Library pipeline in-process: program text + EDB text → answers.
    Batch,
    /// `pcs-serve` child, queries only.
    ServeRead,
    /// `pcs-serve` child, rolling-window insert/retract/query cycles.
    ServeChurn,
}

/// The program and the size of its EDB.
#[derive(Debug, Clone, Copy)]
pub enum Shape {
    /// The flights program over a random DAG of `legs` legs between
    /// `cities` cities.  `rooted` pins the program query's source to `c0`
    /// (what the magic rewriting specializes on).
    Flights {
        cities: usize,
        legs: usize,
        rooted: bool,
    },
    /// Example 7.1 over `b1` random edges with sources below `max_source`
    /// into a `b2` chain of `chain` links.
    Ex71 {
        b1: usize,
        max_source: usize,
        chain: usize,
    },
}

impl Shape {
    /// The same program on a tiny EDB, for `--smoke` runs and tests.
    pub fn smoke(self) -> Shape {
        match self {
            Shape::Flights { rooted, .. } => Shape::Flights {
                cities: 60,
                legs: 300,
                rooted,
            },
            Shape::Ex71 { .. } => Shape::Ex71 {
                b1: 200,
                max_source: 50,
                chain: 20,
            },
        }
    }

    /// The same program on an EDB the naive oracle can afford: naive
    /// iteration re-joins every pair of flights every round.
    pub fn for_oracle(self) -> Shape {
        match self {
            Shape::Flights { rooted, .. } => Shape::Flights {
                cities: 30,
                legs: 60,
                rooted,
            },
            Shape::Ex71 { .. } => Shape::Ex71 {
                b1: 40,
                max_source: 10,
                chain: 7,
            },
        }
    }
}

/// One benchmark workload: its name and reason (as in `BENCHMARK.json`),
/// what it runs, and on what.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub mode: Mode,
    /// Rewriting strategy, as the shell's `.strategy` token.
    pub strategy: &'static str,
    pub shape: Shape,
}

/// The suite.  Sizes are chosen so that one pass of a batch workload takes
/// about a second or less (a ten-second run fits about ten, and their median
/// is steady) while the materialization stays near 10^5 facts.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "batch-closure",
        why: "flights closure under pred,qrp (no magic): the semi-naive join core with arithmetic constraints does nearly all the work",
        mode: Mode::Batch,
        strategy: "constraint",
        shape: Shape::Flights { cities: 6_000, legs: 30_000, rooted: false },
    },
    Workload {
        name: "batch-magic",
        why: "flights under pred,qrp,mg rooted at c0: magic touches a sliver of the EDB, so fact parsing and EDB load dominate and the join core idles",
        mode: Mode::Batch,
        strategy: "optimal",
        shape: Shape::Flights { cities: 20_000, legs: 100_000, rooted: true },
    },
    Workload {
        name: "batch-ex71",
        why: "Example 7.1 under pred,qrp,mg: deep pure-ground recursion without arithmetic, so per-iteration overhead and insert/dedupe dominate",
        mode: Mode::Batch,
        strategy: "optimal",
        shape: Shape::Ex71 { b1: 8_750, max_source: 50, chain: 350 },
    },
    Workload {
        name: "serve-read",
        why: "pcs-serve child, queries only (60% point, 35% source-bound, 5% range): wire framing, query parsing and answer extraction; an update-path change must not move it",
        mode: Mode::ServeRead,
        strategy: "constraint",
        shape: Shape::Flights { cities: 6_000, legs: 30_000, rooted: false },
    },
    Workload {
        name: "serve-churn",
        why: "pcs-serve child, rolling-window insert + retract + point query per cycle: Session::apply, resume, DRed retract, WAL fsync and snapshots beside reads",
        mode: Mode::ServeChurn,
        strategy: "constraint",
        shape: Shape::Flights { cities: 3_000, legs: 15_000, rooted: false },
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// SplitMix64: small, seedable, and the same on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (the modulo bias is below 2^-40 for our sizes).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Uniform in `lo..=hi`.
    fn between(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }
}

/// The query pool: [`QUERY_BLOCKS`] blocks of the exact mix, each in a
/// seeded order.
fn query_pool(rng: &mut Rng, mut query: impl FnMut(&mut Rng, QueryKind) -> String) -> Vec<String> {
    let mut pool = Vec::with_capacity(QUERY_BLOCKS * QUERY_BLOCK.len());
    for _ in 0..QUERY_BLOCKS {
        let mut block = QUERY_BLOCK;
        for i in (1..block.len()).rev() {
            block.swap(i, rng.below(i + 1));
        }
        pool.extend(block.map(|kind| query(rng, kind)));
    }
    pool
}

/// The inputs of one run.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Program text, query included.
    pub program: String,
    /// EDB text, one fact per line.
    pub edb: String,
    /// Number of facts in `edb`.
    pub edb_facts: usize,
    /// Interactive queries (`?- …` lines).
    pub queries: Vec<String>,
    /// A few fixed queries whose answers the correctness checks compare.
    pub probes: Vec<String>,
    /// Per updater, fresh EDB facts (`p(…).`, no sign), disjoint from the
    /// EDB and from each other, and one point query per fact.
    pub updates: Vec<Vec<(String, String)>>,
}

impl Scenario {
    /// Generates the scenario of `shape` from `seed`.
    pub fn generate(shape: Shape, seed: u64) -> Scenario {
        match shape {
            Shape::Flights {
                cities,
                legs,
                rooted,
            } => flights(cities, legs, rooted, seed),
            Shape::Ex71 {
                b1,
                max_source,
                chain,
            } => ex71(b1, max_source, chain, seed),
        }
    }
}

/// A leg of the flight network: source and destination city numbers
/// (source < destination, so the network is a DAG and the closure is
/// finite), time and cost.
type Leg = (usize, usize, usize, usize);

fn random_leg(rng: &mut Rng, lowest: usize, cities: usize) -> Leg {
    loop {
        let (a, b) = (
            rng.between(lowest, cities - 1),
            rng.between(lowest, cities - 1),
        );
        if a != b {
            return (
                a.min(b),
                a.max(b),
                rng.between(30, 400),
                rng.between(20, 500),
            );
        }
    }
}

/// Draws `count` legs none of which is in `seen`, and adds them to it.
fn fresh_legs(
    rng: &mut Rng,
    lowest: usize,
    cities: usize,
    count: usize,
    seen: &mut HashSet<Leg>,
) -> Vec<Leg> {
    let mut legs = Vec::with_capacity(count);
    while legs.len() < count {
        let leg = random_leg(rng, lowest, cities);
        if seen.insert(leg) {
            legs.push(leg);
        }
    }
    legs
}

fn leg_fact((src, dst, time, cost): Leg) -> String {
    format!("singleleg(c{src}, c{dst}, {time}, {cost}).")
}

/// The flights program of Example 1.1 with a caller-chosen query.
fn flights_program(query: &str) -> String {
    format!(
        "r1: cheaporshort(S, D, T, C) :- flight(S, D, T, C), T <= 240.\n\
         r2: cheaporshort(S, D, T, C) :- flight(S, D, T, C), C <= 150.\n\
         r3: flight(Src, Dst, Time, Cost) :- singleleg(Src, Dst, Time, Cost), Cost > 0, Time > 0.\n\
         r4: flight(S, D, T, C) :- flight(S, D1, T1, C1), flight(D1, D, T2, C2), \
         T = T1 + T2 + 30, C = C1 + C2.\n\
         {query}\n"
    )
}

fn flights(cities: usize, legs: usize, rooted: bool, seed: u64) -> Scenario {
    let mut rng = Rng::new(seed);
    let mut seen = HashSet::with_capacity(legs);
    let mut base = Vec::with_capacity(legs);
    // A rooted query needs answers at every scale, and a cone whose size
    // varies little with the seed: c0's only legs are ROOT_LEGS cheap ones
    // whose destinations are spread evenly over the upper half of the
    // cities (legs lead upwards, so a low-numbered destination has a far
    // larger and far more variable cone than a high-numbered one).
    const ROOT_LEGS: usize = 16;
    let lowest = usize::from(rooted);
    let roots = if rooted { ROOT_LEGS.min(legs / 4) } else { 0 };
    for k in 0..roots {
        let dst = cities / 2 + (k * (cities / 2) + rng.below(cities / 2)) / roots;
        let leg = (0, dst, rng.between(30, 400), rng.between(20, 150));
        seen.insert(leg);
        base.push(leg);
    }
    base.extend(fresh_legs(
        &mut rng,
        lowest,
        cities,
        legs - base.len(),
        &mut seen,
    ));
    let mut edb = String::with_capacity(legs * 36);
    for &leg in &base {
        writeln!(edb, "{}", leg_fact(leg)).expect("writing to a String cannot fail");
    }

    // Bound arguments come from real legs, so most queries have answers.
    // Under magic the materialization only answers queries from c0.
    let source = |rng: &mut Rng| if rooted { 0 } else { base[rng.below(legs)].0 };
    // Side-constrained range queries: a time limit that about 1500 direct
    // legs meet (times are uniform over 371 values), whatever the size.
    let limit = 30 + (1500 * 371usize).div_ceil(legs);
    let queries = query_pool(&mut rng, |rng, kind| match kind {
        QueryKind::Point => {
            let (src, dst, ..) = base[rng.below(legs)];
            let src = if rooted { 0 } else { src };
            format!("?- cheaporshort(c{src}, c{dst}, T, C).")
        }
        QueryKind::Source => format!("?- cheaporshort(c{}, D, T, C).", source(rng)),
        QueryKind::Range if rooted => {
            format!(
                "?- cheaporshort(c0, D, T, C), T <= {}.",
                rng.between(200, 240)
            )
        }
        QueryKind::Range => format!(
            "?- cheaporshort(S, D, T, C), T <= {}.",
            limit + rng.below(4)
        ),
    });
    let probes = if rooted {
        vec!["?- cheaporshort(c0, D, T, C).".to_string()]
    } else {
        (0..8)
            .map(|_| format!("?- cheaporshort(c{}, D, T, C).", source(&mut rng)))
            .chain([format!("?- cheaporshort(S, D, T, C), T <= {limit}.")])
            .collect()
    };
    let updates = (0..UPDATE_POOLS)
        .map(|_| {
            fresh_legs(&mut rng, lowest, cities, UPDATE_POOL, &mut seen)
                .into_iter()
                .map(|leg| {
                    let src = if rooted { 0 } else { leg.0 };
                    (
                        leg_fact(leg),
                        format!("?- cheaporshort(c{src}, c{}, T, C).", leg.1),
                    )
                })
                .collect()
        })
        .collect();
    let query = if rooted {
        "?- cheaporshort(c0, D, T, C)."
    } else {
        "?- cheaporshort(S, D, T, C)."
    };
    Scenario {
        program: flights_program(query),
        edb,
        edb_facts: legs,
        queries,
        probes,
        updates,
    }
}

/// Example 7.1 of the paper.
const EX71_PROGRAM: &str = "rl: q(X, Y) :- a1(X, Y), X <= 4.\n\
     r2: a1(X, Y) :- b1(X, Z), a2(Z, Y).\n\
     r3: a2(X, Y) :- b2(X, Y).\n\
     r4: a2(X, Y) :- b2(X, Z), a2(Z, Y).\n\
     ?- q(U, V).\n";

fn ex71(b1: usize, max_source: usize, chain: usize, seed: u64) -> Scenario {
    const BASE: usize = 10_000;
    let mut rng = Rng::new(seed);
    let mut seen = HashSet::with_capacity(b1);
    let mut edge = |rng: &mut Rng| loop {
        let edge = (rng.below(max_source), BASE + rng.below(chain));
        if seen.insert(edge) {
            return edge;
        }
    };
    let fact = |(src, dst): (usize, usize)| format!("b1({src}, {dst}).");
    // There are max_source * chain distinct edges: the EDB takes at most
    // half of them and the update pools a quarter, so drawing fresh ones
    // always ends.
    let b1 = b1.min(max_source * chain / 2);
    let mut edb = String::with_capacity((b1 + chain) * 20);
    for _ in 0..b1 {
        writeln!(edb, "{}", fact(edge(&mut rng))).expect("writing to a String cannot fail");
    }
    for j in 0..chain {
        writeln!(edb, "b2({}, {}).", BASE + j, BASE + j + 1)
            .expect("writing to a String cannot fail");
    }
    let updates = (0..UPDATE_POOLS)
        .map(|_| {
            (0..UPDATE_POOL.min(max_source * chain / 8))
                .map(|_| {
                    let edge = edge(&mut rng);
                    // Only sources up to 4 reach the query.
                    (fact(edge), format!("?- q({}, V).", edge.0.min(4)))
                })
                .collect()
        })
        .collect();
    let queries = query_pool(&mut rng, |rng, kind| match kind {
        QueryKind::Point => format!("?- q({}, {}).", rng.below(5), BASE + 1 + rng.below(chain)),
        QueryKind::Source => format!("?- q({}, V).", rng.below(5)),
        QueryKind::Range => "?- q(U, V).".to_string(),
    });
    Scenario {
        program: EX71_PROGRAM.to_string(),
        edb,
        edb_facts: b1 + chain,
        queries,
        probes: (0..5).map(|k| format!("?- q({k}, V).")).collect(),
        updates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fingerprint(s: &Scenario) -> String {
        format!(
            "{}\n{}\n{:?}\n{:?}\n{:?}",
            s.program, s.edb, s.queries, s.probes, s.updates
        )
    }

    #[test]
    fn same_seed_gives_identical_inputs_and_another_seed_does_not() {
        for w in &WORKLOADS {
            let a = fingerprint(&Scenario::generate(w.shape.smoke(), 42));
            let b = fingerprint(&Scenario::generate(w.shape.smoke(), 42));
            let c = fingerprint(&Scenario::generate(w.shape.smoke(), 43));
            assert_eq!(a, b, "{}", w.name);
            assert_ne!(a, c, "{}", w.name);
        }
    }

    #[test]
    fn update_pools_are_disjoint_from_the_edb_and_from_each_other() {
        for w in &WORKLOADS {
            let s = Scenario::generate(w.shape.smoke(), 7);
            let mut seen: HashSet<&str> = s.edb.lines().collect();
            assert_eq!(
                seen.len(),
                s.edb_facts,
                "{}: EDB facts are distinct",
                w.name
            );
            assert_eq!(s.updates.len(), UPDATE_POOLS);
            for pool in &s.updates {
                assert!(
                    pool.len() > 2 * WINDOW,
                    "{}: pool outlasts the window",
                    w.name
                );
                for (fact, _) in pool {
                    assert!(seen.insert(fact), "{}: {fact} repeats", w.name);
                }
            }
        }
    }

    #[test]
    fn the_query_mix_is_exact_whatever_the_seed() {
        for seed in [1, 2] {
            let s = Scenario::generate(WORKLOADS[0].shape.smoke(), seed);
            let range = s.queries.iter().filter(|q| q.contains("T <=")).count();
            let source = s
                .queries
                .iter()
                .filter(|q| q.contains(", D, T, C)."))
                .count();
            assert_eq!(s.queries.len(), QUERY_BLOCKS * QUERY_BLOCK.len());
            assert_eq!((range, source), (QUERY_BLOCKS, 7 * QUERY_BLOCKS));
        }
    }

    #[test]
    fn flight_legs_point_from_lower_to_higher_city() {
        let s = Scenario::generate(WORKLOADS[0].shape.smoke(), 3);
        for line in s.edb.lines() {
            let args: Vec<&str> = line["singleleg(".len()..].split(", ").collect();
            let number = |city: &str| city[1..].parse::<usize>().unwrap();
            assert!(number(args[0]) < number(args[1]), "{line}");
        }
    }
}
