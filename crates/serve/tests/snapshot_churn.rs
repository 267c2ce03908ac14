//! The snapshot-consistency property under concurrent churn.
//!
//! While writer clients stream randomized edge updates through the engine,
//! reader threads continuously sample published snapshots and check, for
//! every single sample:
//!
//! * **audit validity and minimality** — the snapshot's cover is a valid and
//!   minimal hop-constrained cover *of the snapshot's own graph version*
//!   (re-verified from scratch with the offline auditor, not trusted from the
//!   engine): the writer minimizes before every publish;
//! * **no torn reads** — the audit itself is the tear detector: a cover paired
//!   with the wrong graph version fails it, and membership answered via the
//!   snapshot agrees with the snapshot's own cover set;
//! * **monotone epochs** — the sequence of epochs any one reader observes
//!   never decreases.
//!
//! The engine is driven in-process (no TCP) so the test churns as fast as the
//! writer can apply — the transport is covered by `server_protocol.rs`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use tdb_core::verify::verify_cover;
use tdb_core::{Algorithm, HopConstraint, Solver};
use tdb_dynamic::{EdgeOp, SolveDynamic};
use tdb_graph::gen::{erdos_renyi_gnm, Xoshiro256};
use tdb_graph::VertexId;
use tdb_serve::{CoverEngine, CoverSnapshot, EngineConfig};

const VERTICES: u64 = 160;
const SEED_EDGES: usize = 480;
const K: usize = 4;
const UPDATES_PER_WRITER: usize = 600;
const WRITERS: usize = 2;
const READERS: usize = 3;

/// Whether the snapshot's cover is valid and minimal for its own graph.
fn valid_and_minimal(snap: &CoverSnapshot) -> bool {
    verify_cover(&snap.graph().materialize(), snap.cover(), snap.constraint())
        .is_valid_and_minimal()
}

fn random_op(rng: &mut Xoshiro256) -> EdgeOp {
    let u = rng.next_bounded(VERTICES) as VertexId;
    let mut v = rng.next_bounded(VERTICES - 1) as VertexId;
    if v >= u {
        v += 1; // no self-loops
    }
    // Bias towards insertions so the graph stays cyclic enough to matter.
    if rng.next_bool(0.65) {
        EdgeOp::Insert(u, v)
    } else {
        EdgeOp::Remove(u, v)
    }
}

#[test]
fn every_sampled_snapshot_is_audit_valid_with_monotone_epochs() {
    let graph = erdos_renyi_gnm(VERTICES as usize, SEED_EDGES, 0x5eed);
    let cover = Solver::new(Algorithm::TdbPlusPlus)
        .solve_dynamic(graph, &HopConstraint::new(K))
        .unwrap();
    let engine = CoverEngine::start(
        cover,
        EngineConfig {
            max_batch: 32,
            ..Default::default()
        },
    );
    let snapshots = engine.snapshots();
    let done = Arc::new(AtomicBool::new(false));
    // The writers start only once every reader has loaded its first
    // snapshot; otherwise the writers can finish their non-blocking sends
    // before a reader thread is scheduled at all.
    let started = Arc::new(Barrier::new(READERS + 1));

    let readers: Vec<_> = (0..READERS)
        .map(|r| {
            let snapshots = Arc::clone(&snapshots);
            let done = Arc::clone(&done);
            let started = Arc::clone(&started);
            std::thread::spawn(move || {
                let mut last_epoch = 0u64;
                let mut sampled = 0usize;
                let mut audited = 0usize;
                let mut rng = Xoshiro256::seed_from_u64(0xc0ffee + r as u64);
                while !done.load(Ordering::Acquire) {
                    let snap = snapshots.load();
                    let epoch = snap.epoch();
                    assert!(
                        epoch >= last_epoch,
                        "reader {r}: epoch went backwards ({last_epoch} -> {epoch})"
                    );
                    last_epoch = epoch;
                    sampled += 1;
                    if sampled == 1 {
                        // Before any check that could panic, so a failing
                        // reader cannot leave the writers waiting.
                        started.wait();
                    }
                    // Membership through the snapshot API agrees with the
                    // snapshot's own cover set (same immutable object — a torn
                    // view would be a pairing of different versions).
                    let probe = rng.next_bounded(VERTICES) as VertexId;
                    assert_eq!(snap.contains(probe), snap.cover().contains(probe));
                    // Full offline audit of cover-vs-graph, every sample.
                    assert!(
                        valid_and_minimal(&snap),
                        "reader {r}: snapshot at epoch {epoch} failed the audit"
                    );
                    audited += 1;
                }
                // One last sample after the writers are done.
                let snap = snapshots.load();
                assert!(snap.epoch() >= last_epoch);
                assert!(valid_and_minimal(&snap));
                (sampled, audited)
            })
        })
        .collect();

    started.wait();
    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let queue = engine.queue();
            std::thread::spawn(move || {
                let mut rng = Xoshiro256::seed_from_u64(0xdead + w as u64);
                for _ in 0..UPDATES_PER_WRITER {
                    assert!(queue.send(random_op(&mut rng)), "engine died mid-churn");
                }
            })
        })
        .collect();

    for w in writers {
        w.join().unwrap();
    }
    done.store(true, Ordering::Release);
    let mut total_sampled = 0usize;
    for r in readers {
        let (sampled, audited) = r.join().unwrap();
        assert_eq!(sampled, audited, "every sampled snapshot must be audited");
        assert!(sampled > 0, "readers must observe at least one snapshot");
        total_sampled += sampled;
    }

    let cover = engine.shutdown();
    assert!(cover.is_valid(), "final engine state must be valid");
    let stats_enqueued = (WRITERS * UPDATES_PER_WRITER) as u64;
    assert!(total_sampled > 0);
    assert!(
        snapshots.epoch() >= 1,
        "churn of {stats_enqueued} ops must publish at least one new epoch"
    );
}
