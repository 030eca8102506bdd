//! Differential tests for the resumable fixpoint and for incremental
//! retraction.
//!
//! The contract behind `pcs-service` sessions: for every rewriting strategy,
//! *(materialize base; apply updates incrementally)* stores exactly the
//! relations a from-scratch evaluation of the resulting EDB stores, with the
//! same per-predicate fact counts and the same termination; what it stores
//! denotes exactly what the naive oracle computes for that EDB.
//! Randomized EDBs and update batches (seeded, reproducible) probe the
//! property beyond the deterministic paper workloads.
//!
//! The updates — all through `Evaluator::apply`, the one incremental entry
//! point — are insert-only batches, *arbitrary interleavings* of insert-only
//! and retract-only batches, and single mixed batches: however
//! the extensional database reached its final state, the maintained
//! materialization must be identical to evaluating the surviving EDB from
//! scratch — including the resurrection of facts a retracted constraint
//! fact had subsumed at seed time.  The last section aims at the three
//! corners where a DRed retraction leans on the run-time guards of its
//! statically planned joins.

use proptest::prelude::*;

use pushing_constraint_selections::engine::{naive, AtomOp, EvalResult, ProgramPlans};
use pushing_constraint_selections::prelude::*;

mod common;
use common::{all_strategies, assert_matches_oracle, assert_same_facts, rendered_relations};

/// For every strategy: runs `maintain` (materialize, then update
/// incrementally) and requires the result to store exactly what evaluating
/// `expected_edb` from scratch stores and to denote what the naive oracle
/// computes for it.
fn assert_maintained_matches_scratch(
    program: &Program,
    expected_edb: &Database,
    maintain: impl Fn(&Evaluator) -> EvalResult,
) {
    for strategy in all_strategies() {
        let optimized = Optimizer::new(program.clone())
            .strategy(strategy.clone())
            .optimize()
            .expect("optimization succeeds");
        let evaluator = optimized.evaluator();
        let context = format!("under {strategy:?}");
        let maintained = maintain(&evaluator);
        assert_same_facts(
            &maintained,
            &evaluator.evaluate(expected_edb),
            &format!("between maintained and scratch {context}"),
        );
        let oracle = naive::evaluate(&optimized.program, expected_edb, &EvalLimits::default());
        assert_matches_oracle(&maintained, &oracle, &context);
    }
}

/// Materialize `base`, apply `updates` as one insert-only batch: must match
/// evaluating base + updates from scratch.
fn assert_resume_matches_scratch(program: &Program, base: &Database, updates: &[Fact]) {
    let mut full = base.clone();
    for fact in updates {
        full.add(fact.clone());
    }
    assert_maintained_matches_scratch(program, &full, |evaluator| {
        evaluator.apply(
            evaluator.evaluate(base).relations,
            UpdateBatch::inserting(updates.to_vec()),
            base,
        )
    });
}

/// New flight legs as update facts.
fn leg_updates(legs: &[(&str, &str, i64, i64)]) -> Vec<Fact> {
    legs.iter()
        .map(|(src, dst, time, cost)| {
            Fact::ground(
                "singleleg",
                vec![
                    Value::sym(*src),
                    Value::sym(*dst),
                    Value::num(*time),
                    Value::num(*cost),
                ],
            )
        })
        .collect()
}

#[test]
fn resume_matches_scratch_on_the_flights_workload() {
    let program = programs::flights();
    let base = programs::flights_database(6, 10);
    let updates = leg_updates(&[
        ("madison", "seattle", 45, 30),
        ("city2", "newhub", 40, 35),
        ("newhub", "seattle", 55, 60),
        // Already present in the base database: must be subsumed.
        ("madison", "seattle", 200, 90),
    ]);
    assert_resume_matches_scratch(&program, &base, &updates);
}

#[test]
fn resume_matches_scratch_on_the_7x_workloads() {
    // Sized for the naive oracle, which re-joins everything every round.
    // The updates hang two new sources off the b2 chain (nodes 1000..=1006)
    // and extend it by one link.
    let base = programs::example_7x_database(8, 6);
    let updates = vec![
        Fact::ground("b1", vec![Value::num(3), Value::num(1_001)]),
        Fact::ground("b1", vec![Value::num(50), Value::num(1_004)]),
        Fact::ground("b2", vec![Value::num(1_006), Value::num(1_007)]),
    ];
    assert_resume_matches_scratch(&programs::example_71(), &base, &updates);
    assert_resume_matches_scratch(&programs::example_72(), &base, &updates);
}

#[test]
fn resume_matches_scratch_with_constraint_fact_updates() {
    // Constraint facts can arrive as updates too (e.g. "every leg out of a
    // hub costs at least 70"): the resumed subsumption and projection paths
    // must agree with the from-scratch ones.
    let program = programs::example_71();
    let base = programs::example_7x_database(8, 6);
    let updates = parse_facts(
        "b1(X, 10001) :- X >= 100, X <= 102.\n\
         b2(10006, 10007).",
    )
    .unwrap();
    assert_resume_matches_scratch(&program, &base, &updates);
}

#[test]
fn repeated_resumes_converge_like_one_scratch_run() {
    // Apply three update batches one after another (resume-of-resume) and
    // compare against one evaluation of everything.
    let program = programs::flights();
    let base = programs::flights_database(5, 5);
    let batches = [
        leg_updates(&[("madison", "hubx", 30, 30)]),
        leg_updates(&[("hubx", "seattle", 40, 40)]),
        leg_updates(&[("city1", "hubx", 25, 45), ("madison", "hubx", 30, 30)]),
    ];
    let mut full = base.clone();
    for batch in &batches {
        for fact in batch {
            full.add(fact.clone());
        }
    }
    for strategy in all_strategies() {
        let optimized = Optimizer::new(program.clone())
            .strategy(strategy.clone())
            .optimize()
            .expect("optimization succeeds");
        let evaluator = optimized.evaluator();
        let scratch = evaluator.evaluate(&full);
        let mut edb = base.clone();
        let mut rolling = evaluator.evaluate(&base);
        for batch in &batches {
            rolling = evaluator.apply(
                rolling.relations,
                UpdateBatch::inserting(batch.clone()),
                &edb,
            );
            for fact in batch {
                edb.add(fact.clone());
            }
        }
        assert_eq!(rolling.termination, scratch.termination);
        assert_eq!(
            rendered_relations(&rolling),
            rendered_relations(&scratch),
            "rolling resume diverged under {strategy:?}"
        );
    }
}

/// One maintained update batch: an insertion or a retraction.
#[derive(Debug, Clone)]
enum Update {
    Insert(Vec<Fact>),
    Retract(Vec<Fact>),
}

/// Applies an interleaving of insert/retract batches to a maintained
/// materialization (mirroring the EDB alongside, exactly as a
/// `pcs-service` session does): must match evaluating the surviving EDB
/// from scratch.
fn assert_interleaving_matches_scratch(program: &Program, base: &Database, updates: &[Update]) {
    let mut surviving = base.clone();
    for update in updates {
        match update {
            Update::Insert(facts) => {
                for fact in facts {
                    surviving.add(fact.clone());
                }
            }
            Update::Retract(facts) => {
                surviving.remove_facts(facts);
            }
        }
    }
    assert_maintained_matches_scratch(program, &surviving, |evaluator| {
        let mut edb = base.clone();
        let mut rolling = evaluator.evaluate(base);
        for update in updates {
            rolling = match update {
                Update::Insert(facts) => {
                    let batch = UpdateBatch::inserting(facts.clone());
                    let result = evaluator.apply(rolling.relations, batch, &edb);
                    for fact in facts {
                        edb.add(fact.clone());
                    }
                    result
                }
                Update::Retract(facts) => {
                    edb.remove_facts(facts);
                    let batch = UpdateBatch::retracting(facts.clone());
                    evaluator.apply(rolling.relations, batch, &edb)
                }
            };
        }
        rolling
    });
}

#[test]
fn mixed_updates_match_scratch_on_the_flights_workload() {
    let program = programs::flights();
    let base = programs::flights_database(6, 8);
    let updates = [
        Update::Insert(leg_updates(&[
            ("madison", "newhub", 10, 10),
            ("newhub", "seattle", 10, 10),
        ])),
        // Remove a leg from the original chain: composed flights through it
        // must disappear unless re-derivable another way.
        Update::Retract(leg_updates(&[("madison", "chicago", 50, 100)])),
        Update::Insert(leg_updates(&[("madison", "chicago", 45, 90)])),
        Update::Retract(leg_updates(&[("newhub", "seattle", 10, 10)])),
    ];
    assert_interleaving_matches_scratch(&program, &base, &updates);
}

#[test]
fn mixed_updates_match_scratch_on_the_7x_workloads() {
    // Sized for the naive oracle.  The retractions cut the first link of
    // the b2 chain (nodes 1000..=1006) and take back one inserted source.
    let base = programs::example_7x_database(8, 6);
    let updates = [
        Update::Insert(vec![
            Fact::ground("b1", vec![Value::num(3), Value::num(1_001)]),
            Fact::ground("b1", vec![Value::num(50), Value::num(1_004)]),
        ]),
        Update::Retract(vec![Fact::ground(
            "b2",
            vec![Value::num(1_000), Value::num(1_001)],
        )]),
        Update::Retract(vec![Fact::ground(
            "b1",
            vec![Value::num(3), Value::num(1_001)],
        )]),
    ];
    assert_interleaving_matches_scratch(&programs::example_71(), &base, &updates);
    assert_interleaving_matches_scratch(&programs::example_72(), &base, &updates);
}

#[test]
fn retracting_a_constraint_fact_resurrects_what_it_subsumed() {
    // The ground updates sit inside the constraint fact's denotation: at
    // seed time they are subsumed and never stored.  Retracting the
    // constraint fact must resurrect them — the subtlest corner of the
    // retraction differential.
    let program = programs::example_71();
    let mut base = programs::example_7x_database(6, 5);
    base.add_facts_str(
        "b1(X, 10001) :- X >= 100, X <= 102.\n\
         b1(101, 10001).\n\
         b1(102, 10001).",
    )
    .unwrap();
    let constraint_fact = parse_facts("b1(X, 10001) :- X >= 100, X <= 102.").unwrap();
    let updates = [
        Update::Retract(constraint_fact.clone()),
        Update::Insert(parse_facts("b2(10005, 10006).").unwrap()),
        Update::Retract(parse_facts("b1(102, 10001).").unwrap()),
    ];
    assert_interleaving_matches_scratch(&program, &base, &updates);
}

/// The one-epoch path: `Evaluator::apply` on a single mixed
/// `UpdateBatch { inserts, retracts }` — retractions first, insertions
/// seeded into the same resumed fixpoint — must match evaluating the
/// surviving EDB plus the insertions from scratch.
fn assert_batch_matches_scratch(program: &Program, base: &Database, batch: &UpdateBatch) {
    let mut surviving = base.clone();
    surviving.remove_facts(&batch.retracts);
    let mut full = surviving.clone();
    for fact in &batch.inserts {
        full.add(fact.clone());
    }
    assert_maintained_matches_scratch(program, &full, |evaluator| {
        evaluator.apply(
            evaluator.evaluate(base).relations,
            batch.clone(),
            &surviving,
        )
    });
}

#[test]
fn one_mixed_batch_matches_scratch_on_the_flights_workload() {
    let program = programs::flights();
    let base = programs::flights_database(6, 8);
    let batch = UpdateBatch::retracting(leg_updates(&[("madison", "seattle", 200, 90)]))
        .insert_str("singleleg(madison, newhub, 10, 10).")
        .unwrap()
        .insert_str("singleleg(newhub, seattle, 10, 10).")
        .unwrap();
    assert_batch_matches_scratch(&program, &base, &batch);
}

#[test]
fn one_mixed_batch_matches_scratch_with_constraint_facts() {
    // Retract a constraint fact and insert ground facts inside its former
    // denotation in the *same* batch: the insertions must survive (they are
    // no longer subsumed) and the resurrection pass must not double-store
    // them.
    let program = programs::example_71();
    let mut base = programs::example_7x_database(6, 5);
    base.add_facts_str("b1(X, 10001) :- X >= 100, X <= 102.")
        .unwrap();
    let batch =
        UpdateBatch::retracting(parse_facts("b1(X, 10001) :- X >= 100, X <= 102.").unwrap())
            .insert_str("b1(101, 10001).\nb2(10006, 10007).")
            .unwrap();
    assert_batch_matches_scratch(&program, &base, &batch);
}

#[test]
fn apply_reports_the_resume_shape_for_inserts_and_the_retract_shape_otherwise() {
    let program = programs::flights();
    let base = programs::flights_database(5, 5);
    let inserts = leg_updates(&[("madison", "hubx", 30, 30), ("hubx", "seattle", 40, 40)]);
    let retracts = leg_updates(&[("madison", "seattle", 200, 90)]);
    let evaluator = Optimizer::new(program)
        .strategy(pushing_constraint_selections::Strategy::Optimal)
        .optimize()
        .unwrap()
        .evaluator();

    // Insert-only: the iterations are the resumed fixpoint's alone, opening
    // on the batch as its delta.
    let inserted = evaluator.apply(
        evaluator.evaluate(&base).relations,
        UpdateBatch::inserting(inserts.clone()),
        &base,
    );
    assert!(inserted.stats.resumed && !inserted.stats.retracted);
    assert_eq!(inserted.stats.removed_facts, 0);
    assert_eq!(inserted.stats.iterations[0].delta_facts, inserts.len());

    // Any retraction, alone or beside insertions: the re-derivation round
    // (which has no delta of its own) leads, and what it re-derived opens the
    // resumed fixpoint together with the insertions.
    let mut surviving = base.clone();
    surviving.remove_facts(&retracts);
    for batch in [
        UpdateBatch::retracting(retracts.clone()),
        UpdateBatch {
            inserts,
            retracts: retracts.clone(),
        },
    ] {
        let inserted = batch.inserts.len();
        let result = evaluator.apply(evaluator.evaluate(&base).relations, batch, &surviving);
        assert!(result.stats.resumed && result.stats.retracted);
        assert!(result.stats.removed_facts > 0);
        let rederivation = &result.stats.iterations[0];
        assert_eq!(rederivation.delta_facts, 0);
        assert_eq!(
            result.stats.iterations[1].delta_facts,
            rederivation.new_facts + inserted
        );
    }
}

#[test]
fn retracting_everything_empties_the_materialization() {
    let program = programs::flights();
    let base = programs::flights_database(4, 0);
    let legs: Vec<Fact> = base.facts_for(&Pred::new("singleleg")).to_vec();
    let updates = [Update::Retract(legs)];
    assert_interleaving_matches_scratch(&program, &base, &updates);
}

/// A deterministic rolling-window schedule over the flights network, as a
/// `pcs-serve` churn client produces it: every step inserts one leg —
/// usually a fresh one, sometimes one retracted earlier, sometimes a second
/// copy of a leg still in the window — and, once the window is full,
/// retracts its oldest leg; alternately as one mixed batch and as two
/// single-sided ones.
fn rolling_window_schedule(steps: usize, window_size: usize, seed: u64) -> Vec<UpdateBatch> {
    let cities = ["madison", "c1", "c2", "c3", "c4", "seattle"];
    let mut pool = Vec::new();
    for a in 0..cities.len() {
        for b in a + 1..cities.len() {
            let k = pool.len() as i64;
            pool.extend(leg_updates(&[(
                cities[a],
                cities[b],
                20 + 5 * k,
                10 + 3 * k,
            )]));
        }
    }
    let mut state = seed;
    let mut below = |n: usize| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize % n
    };
    let mut window: std::collections::VecDeque<Fact> = Default::default();
    let mut retired: Vec<Fact> = Vec::new();
    let mut batches = Vec::new();
    for step in 0..steps {
        let leg = match below(3) {
            0 if !retired.is_empty() => retired.swap_remove(below(retired.len())),
            1 if !window.is_empty() => window[below(window.len())].clone(),
            _ => pool[step % pool.len()].clone(),
        };
        window.push_back(leg.clone());
        let insert = UpdateBatch::inserting(vec![leg]);
        if window.len() <= window_size {
            batches.push(insert);
            continue;
        }
        let oldest = window.pop_front().expect("the window is full");
        retired.push(oldest.clone());
        if step % 2 == 0 {
            batches.push(insert.retract(oldest));
        } else {
            batches.push(insert);
            batches.push(UpdateBatch::retracting(vec![oldest]));
        }
    }
    batches
}

#[test]
fn a_long_rolling_window_matches_scratch_across_compactions() {
    // In-place deletion leaves dead slots behind and compacts a relation
    // once they outnumber its live facts; a churn this long takes every
    // relation it touches through that several times, re-inserts facts
    // whose earlier slots are dead, and retracts one copy of duplicated
    // legs (which must survive through their other copy).
    let program = programs::flights();
    let base = programs::flights_database(4, 0);
    let schedule = rolling_window_schedule(48, 4, 0x5eed);
    let mut expected = base.clone();
    for batch in &schedule {
        expected
            .apply(batch)
            .expect("the schedule retracts what it inserted");
    }
    assert_maintained_matches_scratch(&program, &expected, |evaluator| {
        // One evolving EDB, handed over as it stands after each whole
        // batch — insertions included — as a session does.
        let mut edb = base.clone();
        let mut rolling = evaluator.evaluate(&base);
        let mut compactions = 0;
        for batch in &schedule {
            edb.apply(batch).expect("validated above");
            let slots = |result: &EvalResult| -> Vec<usize> {
                result
                    .relations
                    .values()
                    .map(Relation::slot_count)
                    .collect()
            };
            let before = slots(&rolling);
            rolling = evaluator.apply(rolling.relations, batch.clone(), &edb);
            // Only a compaction ever shrinks a relation's index space.
            compactions += before
                .iter()
                .zip(slots(&rolling))
                .filter(|(before, after)| after < before)
                .count();
        }
        assert!(compactions >= 2, "only {compactions} compactions");
        rolling
    });
}

// --- DRed through static plans -------------------------------------------
//
// Over-deletion and re-derivation run precompiled plans whose probe columns
// and existence checks were chosen without knowing which facts are
// constraint facts or which are about to go.  Each case below builds the
// situation one of the executor's run-time guards exists for, checks (on the
// unrewritten program) that the plan really has the shape the case is about, and then holds the retraction to the usual
// standard: every strategy, scratch and oracle.

/// The plans of `program` as written (flattened, no rewriting).
fn plans_as_written(program: &Program) -> ProgramPlans {
    ProgramPlans::compile(&program.flattened())
}

#[test]
fn pinned_rederivation_scans_when_a_constraint_fact_leaves_its_probe_column_open() {
    // r1's pinned plan joins a(X, Z) first (the head binds X) and plans to
    // probe b on Z.  The constraint fact a(1, Z; 5 <= Z <= 7) matches without
    // giving Z a value, so that probe has nothing to look up and the step
    // must scan b instead — and this is the only support p(1) has left once
    // b(9) is retracted.  p(2) has none and must stay gone.
    let program = parse_program("r1: p(X) :- a(X, Z), b(Z).\n?- p(X).").unwrap();
    let plans = plans_as_written(&program);
    let pinned = plans.pinned_plan(0).expect("r1 has a body");
    let order: Vec<_> = pinned.steps.iter().map(|s| (s.literal, s.probe)).collect();
    assert_eq!(order, vec![(0, Some(0)), (1, Some(0))]);

    let mut base = Database::new();
    base.add_facts_str("a(1, Z) :- Z >= 5, Z <= 7.\na(1, 9).\na(2, 9).\nb(6).\nb(9).")
        .unwrap();
    let updates = [Update::Retract(parse_facts("b(9).").unwrap())];
    assert_interleaving_matches_scratch(&program, &base, &updates);
}

#[test]
fn removing_a_derived_constraint_fact_falls_back_to_the_full_rule_plan() {
    // r1 derives the broad constraint fact p(X; 0 <= X <= 5), which swallows
    // r2's p(1) but not its p(6).  Retracting r1's support over-deletes a
    // *proper constraint fact*: no head-pinned join can stand in for it, so
    // r2 must re-run unpinned over the survivors to bring p(1) back.  (r2's
    // second step is planned as a probe on X, which the constraint fact
    // c(X; 1 <= X <= 7) leaves open: it scans, too.)
    let program = parse_program("r1: p(X) :- wide(X).\nr2: p(X) :- c(X), d(X).\n?- p(X).").unwrap();
    let plans = plans_as_written(&program);
    let full = plans.full_plan(1).expect("r2 has a body");
    let order: Vec<_> = full.steps.iter().map(|s| (s.literal, s.probe)).collect();
    assert_eq!(order, vec![(0, None), (1, Some(0))]);

    let mut base = Database::new();
    base.add_facts_str("wide(X) :- X >= 0, X <= 5.\nc(X) :- X >= 1, X <= 7.\nd(1).\nd(6).\nd(9).")
        .unwrap();
    let wide = parse_facts("wide(X) :- X >= 0, X <= 5.").unwrap();

    // The unpinned join shows in the re-derivation round's statistics: it
    // re-derives the surviving p(6) as well (subsumed), which a join pinned
    // inside 0 <= X <= 5 never would.
    let mut surviving = base.clone();
    surviving.remove_facts(&wide);
    let evaluator = Evaluator::new(&program, EvalOptions::default());
    let retracted = evaluator.apply(
        evaluator.evaluate(&base).relations,
        UpdateBatch::retracting(wide.clone()),
        &surviving,
    );
    let rederivation = &retracted.stats.iterations[0];
    assert_eq!((rederivation.new_facts, rederivation.subsumed), (1, 1));

    assert_interleaving_matches_scratch(&program, &base, &[Update::Retract(wide)]);
}

#[test]
fn overdeletion_existence_steps_see_support_that_is_itself_being_removed() {
    // Consuming the retracted a(1) at r1's first literal leaves b(X) fully
    // bound, so the over-deletion plan only checks that b(1) exists.  b(1)
    // is retracted in the same batch, but over-deletion reads the
    // materialization as it stood: the check must still find it and mark
    // p(1) — which r2 then re-derives from c(1), while q(1), whose only
    // derivation joined the removed b(1), stays gone.
    let program = parse_program(
        "r1: p(X) :- a(X), b(X).\nr2: p(X) :- c(X).\nr3: q(X) :- p(X), b(X).\n?- q(X).",
    )
    .unwrap();
    let plans = plans_as_written(&program);
    let overdelete = plans.overdelete_plan(0, 0).expect("r1 consumes a@1");
    assert_eq!(overdelete.steps.len(), 1);
    assert!(overdelete.steps[0].existence && overdelete.steps[0].literal == 1);

    let mut base = Database::new();
    base.add_facts_str("a(1).\na(2).\nb(1).\nb(2).\nc(1).")
        .unwrap();
    let batch = UpdateBatch::retracting(parse_facts("a(1).\nb(1).").unwrap());
    assert_batch_matches_scratch(&program, &base, &batch);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn mixed_updates_match_scratch_on_random_interleavings(
        legs in proptest::collection::vec(
            (0u8..6, 0u8..6, 30i64..240, 20i64..200),
            4..10
        ),
        ops in proptest::collection::vec(0u8..3, 3..6)
    ) {
        // Random acyclic legs; a random schedule inserts them in batches
        // and retracts previously inserted ones (op 2 retracts the oldest
        // still-present leg, ops 0/1 insert the next pending leg).
        let base = programs::flights_database(4, 0);
        let mut pending: Vec<Fact> = Vec::new();
        for (a, b, time, cost) in &legs {
            if a == b {
                continue;
            }
            pending.push(Fact::ground(
                "singleleg",
                vec![
                    Value::sym(format!("c{}", a.min(b))),
                    Value::sym(format!("c{}", a.max(b))),
                    Value::num(*time),
                    Value::num(*cost),
                ],
            ));
        }
        let mut updates: Vec<Update> = Vec::new();
        let mut present: Vec<Fact> = Vec::new();
        let mut next = 0usize;
        for op in ops {
            if op == 2 && !present.is_empty() {
                updates.push(Update::Retract(vec![present.remove(0)]));
            } else if next < pending.len() {
                let fact = pending[next].clone();
                next += 1;
                present.push(fact.clone());
                updates.push(Update::Insert(vec![fact]));
            }
        }
        if updates.is_empty() {
            updates.push(Update::Insert(Vec::new()));
        }
        assert_interleaving_matches_scratch(&programs::flights(), &base, &updates);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn resume_matches_scratch_on_random_splits(
        legs in proptest::collection::vec(
            (0u8..6, 0u8..6, 30i64..240, 20i64..200),
            2..10
        ),
        split in 1usize..9
    ) {
        // A random acyclic leg set, split at a random point into base facts
        // and an update batch.
        let mut base = programs::flights_database(4, 0);
        let mut updates = Vec::new();
        for (i, (a, b, time, cost)) in legs.iter().enumerate() {
            if a == b {
                continue;
            }
            let (lo, hi) = (a.min(b), a.max(b));
            let fact = Fact::ground(
                "singleleg",
                vec![
                    Value::sym(format!("c{lo}")),
                    Value::sym(format!("c{hi}")),
                    Value::num(*time),
                    Value::num(*cost),
                ],
            );
            if i < split % legs.len() {
                base.add(fact);
            } else {
                updates.push(fact);
            }
        }
        assert_resume_matches_scratch(&programs::flights(), &base, &updates);
    }
}

#[test]
fn updates_through_a_constraint_fact_re_resolve_the_atoms_it_left_waiting() {
    // `Y = X + 1` is scheduled, statically, at whichever stage binds X.
    // Wherever the constraint fact a(X; 0 <= X <= 10) is the fact matched
    // there, X gets no value and the atom must wait in the residual until
    // the ground `b` fact fills the slot:
    //   * retracting the constraint fact consumes it at r1's over-deletion
    //     entry stage — q(3, 4) and q(7, 8) are only found, and removed, if
    //     the deferred definition still produces Y; q(3, 4) comes back
    //     through r2, q(20, 21) through the ground a(20);
    //   * re-inserting it makes it the delta fact of a resumed round;
    //   * retracting d(3, 4) then leaves q(3, 4) to r1's pinned
    //     re-derivation, which probes `a` with X = 3 and meets the
    //     constraint fact with the slots already full.
    let program = parse_program(
        "r1: q(X, Y) :- a(X), b(X), c(Y), Y = X + 1.\n\
         r2: q(X, Y) :- d(X, Y).\n\
         ?- q(X, Y).",
    )
    .unwrap();
    let plans = plans_as_written(&program);
    let overdelete = plans.overdelete_plan(0, 0).expect("r1 has a body");
    let entry = overdelete.entry.as_ref().expect("over-deletion is seeded");
    assert!(matches!(entry.atoms[..], [AtomOp::Define { .. }]));

    let mut base = Database::new();
    base.add_facts_str(
        "a(X) :- X >= 0, X <= 10.\na(20).\n\
         b(3).\nb(7).\nb(15).\nb(20).\n\
         c(4).\nc(8).\nc(16).\nc(21).\n\
         d(3, 4).",
    )
    .unwrap();
    let interval = parse_facts("a(X) :- X >= 0, X <= 10.").unwrap();
    let updates = [
        Update::Retract(interval.clone()),
        Update::Insert(interval),
        Update::Retract(parse_facts("d(3, 4).").unwrap()),
    ];
    for prefix in 1..=updates.len() {
        assert_interleaving_matches_scratch(&program, &base, &updates[..prefix]);
    }
}
