//! Store-equivalence and reincarnation suite for the session engine.
//!
//! The slab store recycles slot memory: when host H is evicted and later
//! re-admitted, it may land in the same slot, on the same detector
//! allocation, its predecessor used. These tests pin the contract that
//! recycling is invisible — a reincarnated host behaves bit-for-bit like
//! a host on a fresh engine (seq space, window ring, vote smoother), the
//! `sessions`/`session_bytes` gauges stay exact across admit→evict→reuse
//! cycles, and none of it depends on which store backs the shard.

use hmd_hpc_sim::corpus::{CorpusBuilder, CorpusSpec};
use hmd_hpc_sim::workload::AppClass;
use hmd_ml::classifier::ClassifierKind;
use hmd_serve::metrics::Metrics;
use hmd_serve::session::{SessionConfig, SessionEngine, StoreKind, SubmitError, TimeSource};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use twosmart::detector::{TwoSmartDetector, Verdict};
use twosmart::persist::DetectorSnapshot;

/// One trained detector shared by every test case (training is the
/// expensive part; engines clone it).
fn detector() -> TwoSmartDetector {
    static DETECTOR: OnceLock<TwoSmartDetector> = OnceLock::new();
    DETECTOR
        .get_or_init(|| {
            let corpus = CorpusBuilder::new(CorpusSpec::tiny()).build();
            AppClass::MALWARE
                .iter()
                .fold(
                    TwoSmartDetector::builder().seed(4).hpc_budget(4),
                    |b, &c| b.classifier_for(c, ClassifierKind::OneR),
                )
                .train(&corpus)
                .expect("detector trains")
        })
        .clone()
}

fn engine(store: StoreKind, idle_after: u64) -> (SessionEngine, Arc<Metrics>) {
    engine_serving(detector(), store, idle_after)
}

fn engine_serving(
    detector: TwoSmartDetector,
    store: StoreKind,
    idle_after: u64,
) -> (SessionEngine, Arc<Metrics>) {
    let metrics = Arc::new(Metrics::new());
    let e = SessionEngine::new(
        detector,
        &SessionConfig {
            shards: 4,
            window: 2,
            votes: 2,
            idle_after,
            time: TimeSource::External,
            store,
            ..SessionConfig::default()
        },
        Arc::clone(&metrics),
    )
    .expect("engine builds");
    (e, metrics)
}

/// A deterministic reading derived from an index: large enough to land in
/// interesting detector regions, distinct per index.
fn reading(i: u64) -> [f64; 4] {
    let x = 1e5 + (i as f64) * 37.0;
    [x, x / 3.0, x / 7.0, x / 11.0]
}

fn arb_store() -> impl Strategy<Value = StoreKind> {
    prop_oneof![Just(StoreKind::BTree), Just(StoreKind::Slab)]
}

proptest! {
    /// Evict host H, re-admit H: its verdict stream must match a fresh
    /// engine fed the same post-reincarnation readings bit for bit, and
    /// its seq space must restart (a low seq is accepted again).
    #[test]
    fn reincarnated_host_matches_fresh_store_oracle(
        store in arb_store(),
        pre_readings in 1u64..12,
        noise_hosts in 0u64..5,
        post in proptest::collection::vec(0u64..1000, 1..16),
    ) {
        let host = 4242;
        let (e, _) = engine(store, 4);
        e.set_time(0);
        // Pre-life: activity on H plus neighbouring noise sessions that
        // stay resident across H's eviction (index/slab collisions).
        for i in 0..pre_readings {
            e.submit(host, 100 + i, &reading(i)).unwrap();
        }
        for n in 0..noise_hosts {
            e.submit(n * 977 + 1, 0, &reading(n)).unwrap();
        }
        // Keep the noise hosts hot while H idles past the threshold.
        for t in 1..=6u64 {
            e.set_time(t);
            for n in 0..noise_hosts {
                e.submit(n * 977 + 1, t, &reading(n + t)).unwrap();
            }
        }
        let evicted = e.evict_idle_at(6);
        prop_assert!(evicted.contains(&host), "H must be evicted, got {evicted:?}");
        // Reincarnation: seq restarts below the predecessor's, the window
        // and smoother must behave like a fresh engine's.
        let (fresh, _) = engine(store, 4);
        fresh.set_time(6);
        e.set_time(6);
        for (i, &r) in post.iter().enumerate() {
            let got = e.submit(host, i as u64, &reading(r));
            let want = fresh.submit(host, i as u64, &reading(r));
            prop_assert_eq!(got, want, "reading {} diverged from the fresh oracle", i);
        }
    }

    /// The full observable behaviour of both stores is identical for
    /// arbitrary interleavings of submits, replays, and sweeps.
    #[test]
    fn stores_agree_on_arbitrary_interleavings(
        ops in proptest::collection::vec((0u64..12, 0u64..6, any::<bool>()), 1..60),
    ) {
        let run = |store: StoreKind| {
            let (e, metrics) = engine(store, 3);
            let mut log = Vec::new();
            for (t, &(host_sel, seq, sweep)) in ops.iter().enumerate() {
                e.set_time(t as u64);
                if sweep {
                    log.push(format!("evict {:?}", e.evict_idle_at(t as u64)));
                }
                let host = host_sel * 977 + 13;
                log.push(format!("{:?}", e.submit(host, seq, &reading(seq))));
            }
            let snap = metrics.snapshot();
            (log, e.sessions(), snap.sessions, snap.session_bytes, snap.evictions)
        };
        prop_assert_eq!(run(StoreKind::BTree), run(StoreKind::Slab));
    }
}

#[test]
fn gauges_stay_exact_across_admit_evict_reuse_cycles() {
    for store in [StoreKind::BTree, StoreKind::Slab] {
        let (e, metrics) = engine(store, 2);
        let per = e.session_bytes_estimate();
        assert!(per > 0);
        let check = |label: &str, want_sessions: u64| {
            let snap = metrics.snapshot();
            assert_eq!(
                (snap.sessions, snap.session_bytes),
                (want_sessions, want_sessions * per),
                "{store:?}: gauges after {label}"
            );
            assert_eq!(
                e.sessions() as u64,
                want_sessions,
                "{store:?}: live count after {label}"
            );
        };
        // Admit 10 hosts.
        e.set_time(0);
        for h in 0..10u64 {
            e.submit(h, 0, &reading(h)).unwrap();
        }
        check("admitting 10", 10);
        // Resubmits must not re-count live sessions.
        e.set_time(1);
        for h in 0..10u64 {
            e.submit(h, 1, &reading(h)).unwrap();
        }
        check("resubmitting to all 10", 10);
        // Keep 3 hot; the other 7 idle out.
        for t in 2..=4u64 {
            e.set_time(t);
            for h in 0..3u64 {
                e.submit(h, t, &reading(h)).unwrap();
            }
        }
        let mut evicted = e.evict_idle_at(4);
        evicted.sort_unstable();
        assert_eq!(evicted, (3..10).collect::<Vec<u64>>(), "{store:?}");
        check("evicting 7 idle", 3);
        // Reuse: re-admit 5 of the evicted hosts (slab: freed slots).
        e.set_time(4);
        for h in 3..8u64 {
            e.submit(h, 0, &reading(h)).unwrap();
        }
        check("re-admitting 5", 8);
        // Drain everything.
        assert_eq!(e.evict_idle_at(100).len(), 8);
        check("final sweep", 0);
        assert_eq!(metrics.snapshot().evictions, 7 + 8, "{store:?}: evictions");
        // A second full cycle behaves identically (slot reuse steady state).
        e.set_time(101);
        for h in 0..6u64 {
            e.submit(h, 0, &reading(h)).unwrap();
        }
        check("second-cycle admits", 6);
        assert_eq!(e.evict_idle_at(200).len(), 6);
        check("second-cycle sweep", 0);
    }
}

#[test]
fn threaded_churn_with_reincarnation_never_corrupts_state() {
    // Aggressive idle threshold + an ever-advancing sweeper: every host is
    // evicted and re-admitted many times mid-stream. Submits must always
    // succeed (each thread owns its host's seq space; eviction between
    // submits only restarts warm-up), and when the dust settles the
    // gauges must balance to zero exactly.
    for store in [StoreKind::BTree, StoreKind::Slab] {
        let metrics = Arc::new(Metrics::new());
        let e = Arc::new(
            SessionEngine::new(
                detector(),
                &SessionConfig {
                    shards: 4,
                    window: 2,
                    votes: 2,
                    idle_after: 1,
                    time: TimeSource::External,
                    store,
                    ..SessionConfig::default()
                },
                Arc::clone(&metrics),
            )
            .unwrap(),
        );
        let stop = Arc::new(AtomicBool::new(false));
        let sweeper = {
            let (e, stop) = (Arc::clone(&e), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut now = 0;
                let mut scratch = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    now += 1;
                    e.set_time(now);
                    e.evict_idle_at_into(now, &mut scratch);
                }
            })
        };
        let workers: Vec<_> = (0..4u64)
            .map(|host| {
                let e = Arc::clone(&e);
                std::thread::spawn(move || {
                    let mut warmups = 0u64;
                    for seq in 0..3000u64 {
                        match e.submit(host, seq, &reading(seq)) {
                            Ok(None) => warmups += 1,
                            Ok(Some(_)) => {}
                            Err(err) => panic!("submit failed: {err:?}"),
                        }
                    }
                    warmups
                })
            })
            .collect();
        let warmups: Vec<u64> = workers.into_iter().map(|w| w.join().unwrap()).collect();
        stop.store(true, Ordering::Relaxed);
        sweeper.join().unwrap();
        // Every eviction forces a fresh warm-up on the next submit, so
        // heavy churn must show up as many warm-ups per thread.
        for (host, &w) in warmups.iter().enumerate() {
            assert!(w >= 1, "{store:?}: host {host} never warmed up?");
        }
        // Quiesce: a final far-future sweep must reclaim every session and
        // the gauges must return exactly to zero.
        let survivors = e.evict_idle_at(u64::MAX);
        let snap = metrics.snapshot();
        assert_eq!(e.sessions(), 0, "{store:?}");
        assert_eq!((snap.sessions, snap.session_bytes), (0, 0), "{store:?}");
        assert_eq!(
            snap.evictions,
            survivors.len() as u64 + (snap.evictions - survivors.len() as u64),
            "tautology guard: evictions counter monotonic"
        );
    }
}

#[test]
fn out_of_order_rejection_survives_reincarnation_boundary() {
    // A replayed seq right at the eviction boundary must be judged against
    // the *current* incarnation's seq space on both stores.
    for store in [StoreKind::BTree, StoreKind::Slab] {
        let (e, _) = engine(store, 2);
        e.set_time(0);
        e.submit(9, 50, &reading(0)).unwrap();
        assert_eq!(
            e.submit(9, 50, &reading(0)),
            Err(SubmitError::OutOfOrder { last: 50, got: 50 }),
            "{store:?}"
        );
        assert_eq!(e.evict_idle_at(10), vec![9], "{store:?}");
        e.set_time(10);
        // Fresh incarnation: seq 50 is fine again, and the warm-up verdict
        // proves the predecessor's window is gone.
        assert_eq!(e.submit(9, 50, &reading(1)), Ok(None), "{store:?}");
        assert_eq!(
            e.submit(9, 50, &reading(1)),
            Err(SubmitError::OutOfOrder { last: 50, got: 50 }),
            "{store:?}"
        );
    }
}

#[test]
fn verdict_values_are_preserved_across_slot_reuse() {
    // Fill a window to a real (non-warm-up) verdict, evict, re-admit with
    // *different* readings: the verdict must reflect only the new
    // incarnation's readings — on the slab store this exercises a reused
    // ring buffer end to end.
    for store in [StoreKind::BTree, StoreKind::Slab] {
        let (e, _) = engine(store, 2);
        e.set_time(0);
        let a0 = e.submit(77, 0, &reading(0)).unwrap();
        let a1 = e.submit(77, 1, &reading(0)).unwrap();
        assert_eq!(a0, None, "{store:?}: warm-up");
        assert!(a1.is_some(), "{store:?}: window of 2 filled");
        assert_eq!(e.evict_idle_at(20), vec![77], "{store:?}");
        e.set_time(20);
        let b0 = e.submit(77, 0, &reading(500)).unwrap();
        let b1 = e.submit(77, 1, &reading(500)).unwrap();
        assert_eq!(b0, None, "{store:?}: reincarnated warm-up");
        // Oracle: the same two readings on a never-evicted fresh engine.
        let (fresh, _) = engine(store, 2);
        fresh.set_time(0);
        fresh.submit(77, 0, &reading(500)).unwrap();
        let want = fresh.submit(77, 1, &reading(500)).unwrap();
        assert_eq!(b1, want, "{store:?}: reused ring must match fresh ring");
        assert!(matches!(
            want,
            Some(Verdict::Benign | Verdict::Malware { .. })
        ));
    }
}

#[test]
fn restored_detector_serves_with_the_same_session_gauge_and_verdicts() {
    // The gauge counts per-host state only, so an engine serving a
    // detector restored from its snapshot must report the same per-session
    // estimate — and give the same verdicts — as one serving the original.
    let trained = detector();
    let restored = DetectorSnapshot::capture(&trained)
        .expect("trained detector snapshots")
        .restore();
    let (a, _) = engine_serving(trained, StoreKind::Slab, 8);
    let (b, _) = engine_serving(restored, StoreKind::Slab, 8);
    assert_eq!(a.session_bytes_estimate(), b.session_bytes_estimate());
    // window 2 × 4 counters in the ring, 4 rolling sums, 2 retained votes.
    let buffers = (2 * 4 + 4) * std::mem::size_of::<f64>() + 2 * std::mem::size_of::<Verdict>();
    assert!(
        a.session_bytes_estimate() >= buffers as u64,
        "estimate {} below the {buffers} buffer bytes",
        a.session_bytes_estimate()
    );
    let run = |e: &SessionEngine| -> Vec<_> {
        (0..40u64)
            .map(|i| e.submit(i % 5, i / 5, &reading(i * 53)))
            .collect()
    };
    let (want, got) = (run(&a), run(&b));
    assert!(want.iter().any(|r| matches!(r, Ok(Some(_)))));
    assert_eq!(got, want);
}
