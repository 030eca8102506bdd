//! Synthetic workload generators.
//!
//! The deterministic generators of `pcs_core::programs` are re-exported, and
//! randomized variants (seeded, reproducible) are added for the scaling
//! experiments.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pcs_core::programs;
use pcs_engine::{Database, Fact, Value};

pub use pcs_core::programs::{
    example_41_database, example_42_database, example_7x_database, flights_database,
};

/// A random flight network: `num_cities` cities, `num_legs` legs between
/// random city pairs with times in `[30, 400]` and costs in `[20, 500]`,
/// always including a cheap chain from `madison` to `seattle` so the query
/// has answers.  Legs are oriented from the lower- to the higher-numbered
/// city, so the network is a DAG and the bottom-up flight closure terminates
/// at every scale (the join benchmarks sweep this into the thousands of
/// legs).  Seeded and reproducible.
pub fn random_flights_database(num_cities: usize, num_legs: usize, seed: u64) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = programs::flights_database(4, 0);
    let city = |i: usize| format!("c{i}");
    for _ in 0..num_legs {
        let a = rng.random_range(0..num_cities);
        let b = rng.random_range(0..num_cities);
        if a == b {
            continue;
        }
        let src = city(a.min(b));
        let dst = city(a.max(b));
        let time: i64 = rng.random_range(30..=400);
        let cost: i64 = rng.random_range(20..=500);
        db.add_ground(
            "singleleg",
            vec![
                Value::sym(&src),
                Value::sym(&dst),
                Value::num(time),
                Value::num(cost),
            ],
        );
    }
    db
}

/// A batch of update legs for the incremental benches: `num_legs` new
/// legs between random cities of a `num_cities` flight network, oriented
/// from the lower- to the higher-numbered city so the grown network stays a
/// DAG (the same invariant as [`random_flights_database`]).  Returned as
/// facts ready for `UpdateBatch::inserting` or `Session::insert`.  Seeded and
/// reproducible; use a different seed than the base database so the batch
/// is mostly genuinely new legs.
pub fn flights_update_legs(num_cities: usize, num_legs: usize, seed: u64) -> Vec<Fact> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut legs = Vec::with_capacity(num_legs);
    while legs.len() < num_legs {
        let a = rng.random_range(0..num_cities);
        let b = rng.random_range(0..num_cities);
        if a == b {
            continue;
        }
        let time: i64 = rng.random_range(30..=400);
        let cost: i64 = rng.random_range(20..=500);
        legs.push(Fact::ground(
            "singleleg",
            vec![
                Value::sym(format!("c{}", a.min(b))),
                Value::sym(format!("c{}", a.max(b))),
                Value::num(time),
                Value::num(cost),
            ],
        ));
    }
    legs
}

/// A batch of *existing* legs sampled from a flight database, for the
/// deletion benches: `num_legs` distinct `singleleg` facts drawn
/// uniformly (seeded, reproducible), ready for `UpdateBatch::retracting` or
/// `Session::remove`.  Panics if the database has fewer legs than asked
/// for.
pub fn flights_remove_legs(db: &Database, num_legs: usize, seed: u64) -> Vec<Fact> {
    let legs = db.facts_for(&pcs_lang::Pred::new("singleleg"));
    assert!(
        legs.len() >= num_legs,
        "cannot sample {num_legs} legs from a database with {}",
        legs.len()
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut picked: Vec<usize> = Vec::with_capacity(num_legs);
    while picked.len() < num_legs {
        let index = rng.random_range(0..legs.len());
        if !picked.contains(&index) {
            picked.push(index);
        }
    }
    picked
        .into_iter()
        .map(|index| legs[index].clone())
        .collect()
}

/// A random EDB for the Example 7.1/7.2 programs: `b1` edges with sources in
/// `[0, max_source)` and a `b2` chain of the given length.
pub fn random_7x_database(b1_edges: usize, max_source: i64, chain: usize, seed: u64) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new();
    let base = 10_000i64;
    for _ in 0..b1_edges {
        let src: i64 = rng.random_range(0..max_source);
        let dst: i64 = base + rng.random_range(0..chain as i64);
        db.add_ground("b1", vec![Value::num(src), Value::num(dst)]);
    }
    for j in 0..chain as i64 {
        db.add_ground("b2", vec![Value::num(base + j), Value::num(base + j + 1)]);
    }
    db
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_generators_are_reproducible() {
        let a = random_flights_database(10, 50, 42);
        let b = random_flights_database(10, 50, 42);
        assert_eq!(a.len(), b.len());
        let c = random_7x_database(20, 10, 5, 7);
        let d = random_7x_database(20, 10, 5, 7);
        assert_eq!(c.len(), d.len());
        assert!(c.len() >= 5);
    }

    #[test]
    fn update_legs_are_acyclic_and_reproducible() {
        let a = flights_update_legs(12, 8, 3);
        let b = flights_update_legs(12, 8, 3);
        assert_eq!(a.len(), 8);
        assert_eq!(
            a.iter().map(ToString::to_string).collect::<Vec<_>>(),
            b.iter().map(ToString::to_string).collect::<Vec<_>>()
        );
        for leg in &a {
            let values = leg.ground_values().unwrap();
            let src = values[0].as_sym().unwrap().name().to_string();
            let dst = values[1].as_sym().unwrap().name().to_string();
            let number = |s: &str| s[1..].parse::<usize>().unwrap();
            assert!(number(&src) < number(&dst), "{src} -> {dst}");
        }
    }

    #[test]
    fn remove_legs_samples_distinct_existing_legs() {
        let db = random_flights_database(12, 30, 7);
        let a = flights_remove_legs(&db, 5, 11);
        let b = flights_remove_legs(&db, 5, 11);
        assert_eq!(
            a.iter().map(ToString::to_string).collect::<Vec<_>>(),
            b.iter().map(ToString::to_string).collect::<Vec<_>>()
        );
        assert_eq!(a.len(), 5);
        let legs = db.facts_for(&pcs_lang::Pred::new("singleleg"));
        for fact in &a {
            assert!(legs.contains(fact), "{fact} is not an existing leg");
        }
        // Distinct indices — removing the batch removes exactly 5 facts.
        let mut survivors = db.clone();
        assert_eq!(survivors.remove_facts(&a), 5);
        assert_eq!(survivors.len(), db.len() - 5);
    }
}
