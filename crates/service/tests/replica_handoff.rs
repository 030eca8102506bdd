//! Epochs by replica hand-off, seen from outside: readers holding old
//! snapshots across updates, every epoch against a from-scratch
//! materialization, and the `epoch_clones` counter as the witness of which
//! updates had to copy the database.
//!
//! This lives in its own integration-test binary (one `#[test]`) because
//! the telemetry registry is process-global: any other test applying an
//! update in the same process would move the counter.

use pcs_core::{programs, Optimizer, Strategy};
use pcs_engine::Database;
use pcs_service::{Session, Snapshot};
use pcs_telemetry::{Counter, TelemetryMode};

/// The EDB (sorted) and every relation's facts (sorted) of a snapshot.
fn rendered(snapshot: &Snapshot) -> (Vec<String>, Vec<(String, Vec<String>)>) {
    let mut edb: Vec<String> = snapshot
        .base()
        .all_facts()
        .map(ToString::to_string)
        .collect();
    edb.sort();
    let relations = snapshot
        .result()
        .relations
        .iter()
        .map(|(pred, relation)| {
            let mut facts: Vec<String> = relation.iter().map(|f| f.to_string()).collect();
            facts.sort();
            (pred.to_string(), facts)
        })
        .collect();
    (edb, relations)
}

#[test]
fn held_snapshots_stay_intact_while_the_replicas_change_hands() {
    pcs_telemetry::set_mode(TelemetryMode::On);
    pcs_telemetry::reset();
    let clones = || pcs_telemetry::counter(Counter::EpochClones);

    let optimizer = Optimizer::new(programs::flights()).strategy(Strategy::ConstraintRewrite);
    let mut edb: Database = programs::flights_database(6, 10);
    let session = Session::materialize(&optimizer, &edb).unwrap();
    // A read-only session has one replica and has copied nothing.
    assert_eq!(clones(), 0);

    // Inserts, retractions (of base facts and of inserted ones) and a
    // re-insertion of a retracted fact; after each, the clones so far.
    let updates: [(&str, u64); 8] = [
        // The session's first update: there is no second replica yet.
        ("+singleleg(madison, hub, 10, 10).", 1),
        // The replica epoch 1 retired is the one `held0` still reads.
        ("+singleleg(hub, seattle, 10, 10).", 2),
        // From here the two replicas nobody else holds change hands.
        ("-singleleg(madison, seattle, 200, 90).", 2),
        // (A second reader takes its snapshot after this one.)
        ("-singleleg(madison, hub, 10, 10).", 2),
        // Publishing epoch 5 retires the replica that reader holds ...
        ("+singleleg(madison, seattle, 200, 90).", 2),
        // ... so this update cannot reclaim it.
        ("+singleleg(madison, hub, 10, 10).", 3),
        // Both readers are gone before these two: no copy.
        ("-singleleg(hub, seattle, 10, 10).", 3),
        ("+singleleg(city1, hub, 20, 20).", 3),
    ];
    let held0 = session.snapshot();
    let at0 = rendered(&held0);
    let mut held: Vec<(Snapshot, _)> = vec![(held0, at0)];
    for (step, (update, expected_clones)) in updates.into_iter().enumerate() {
        let (sign, fact) = update.split_at(1);
        let outcome = if sign == "+" {
            edb.add_facts_str(fact).unwrap();
            session.insert_str(fact).unwrap()
        } else {
            assert_eq!(edb.remove_facts_str(fact).unwrap(), 1);
            session.remove_str(fact).unwrap()
        };
        assert_eq!(outcome.epoch, step as u64 + 1);
        assert_eq!(clones(), expected_clones, "after `{update}`");
        // The published epoch is a from-scratch materialization of its EDB.
        let fresh = Session::materialize(&optimizer, &edb).unwrap();
        assert_eq!(
            rendered(&session.snapshot()),
            rendered(&fresh.snapshot()),
            "after `{update}`"
        );
        // Whatever the writer did to the replicas, every snapshot a reader
        // still holds shows its own epoch.
        for (snapshot, then) in &held {
            assert_eq!(&rendered(snapshot), then, "epoch {}", snapshot.epoch());
        }
        match outcome.epoch {
            4 => {
                let snapshot = session.snapshot();
                let now = rendered(&snapshot);
                held.push((snapshot, now));
            }
            6 => held.clear(),
            _ => {}
        }
    }
    assert_eq!(held.len(), 0);

    pcs_telemetry::reset();
    pcs_telemetry::set_mode(TelemetryMode::Off);
}
