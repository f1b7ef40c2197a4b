//! End-to-end serving: a real `TcpListener`, concurrent clients, and the
//! acceptance criteria of the serve subsystem —
//!
//! 1. verdicts over the wire are bit-identical to an in-process
//!    [`OnlineDetector`] fed the same stream, per host, across runs,
//!    worker counts, protocol versions *and* event-loop modes;
//! 2. a malformed or wrong-arity frame never kills the connection worker;
//! 3. load shedding answers `Error{overloaded}` instead of queueing, and
//!    shed peers that never read cannot stall the accept loop;
//! 4. a framing-fatal error is queued exactly once — a slow-reading peer
//!    must not blow up the connection's output buffer.

use std::time::Duration;
use twosmart_suite::hpc_sim::corpus::{CorpusBuilder, CorpusSpec};
use twosmart_suite::hpc_sim::workload::AppClass;
use twosmart_suite::ml::classifier::ClassifierKind;
use twosmart_suite::serve::client::{ClientError, DetectorClient};
use twosmart_suite::serve::loadgen::host_stream;
use twosmart_suite::serve::protocol::{encode, ErrorCode, Frame, WireFormat};
use twosmart_suite::serve::server::{serve, EventLoop, ServeConfig, ServerHandle};
use twosmart_suite::serve::session::SessionConfig;
use twosmart_suite::twosmart::detector::{TwoSmartDetector, Verdict};
use twosmart_suite::twosmart::online::OnlineDetector;

const WINDOW: usize = 4;
const VOTES: usize = 3;
const STREAM_LEN: usize = 24;
const SEED: u64 = 2024;

fn trained_detector() -> TwoSmartDetector {
    let corpus = CorpusBuilder::new(CorpusSpec::tiny()).build();
    AppClass::MALWARE
        .iter()
        .fold(
            TwoSmartDetector::builder().seed(7).hpc_budget(4),
            |b, &c| b.classifier_for(c, ClassifierKind::OneR),
        )
        .train(&corpus)
        .expect("detector trains")
}

fn start_server(
    detector: TwoSmartDetector,
    workers: usize,
    max_connections: usize,
) -> ServerHandle {
    start_server_cfg(detector, workers, max_connections, |_| {})
}

fn start_server_cfg(
    detector: TwoSmartDetector,
    workers: usize,
    max_connections: usize,
    tweak: impl FnOnce(&mut ServeConfig),
) -> ServerHandle {
    let mut config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        max_connections,
        session: SessionConfig {
            window: WINDOW,
            votes: VOTES,
            ..SessionConfig::default()
        },
        ..ServeConfig::default()
    };
    tweak(&mut config);
    serve(detector, config).expect("server starts")
}

/// The ground truth: the same detector and stream, fed in-process.
fn expected_verdicts(detector: &TwoSmartDetector, stream: &[Vec<f64>]) -> Vec<Option<Verdict>> {
    let mut online = OnlineDetector::new(detector.clone(), WINDOW, VOTES).unwrap();
    stream.iter().map(|r| online.push(r)).collect()
}

fn served_verdicts(
    addr: std::net::SocketAddr,
    host: u64,
    stream: &[Vec<f64>],
) -> Vec<Option<Verdict>> {
    let mut client = DetectorClient::connect(addr, Duration::from_secs(10)).expect("connects");
    stream
        .iter()
        .enumerate()
        .map(|(seq, r)| client.submit(host, seq as u64, r).expect("submit succeeds"))
        .collect()
}

#[test]
fn verdicts_match_in_process_detector_across_worker_counts() {
    let detector = trained_detector();
    let hosts: Vec<u64> = vec![3, 11, 42];
    let streams: Vec<Vec<Vec<f64>>> = hosts
        .iter()
        .map(|&h| host_stream(SEED, h, STREAM_LEN))
        .collect();
    let expected: Vec<Vec<Option<Verdict>>> = streams
        .iter()
        .map(|s| expected_verdicts(&detector, s))
        .collect();
    // Warm-up must hold exactly WINDOW-1 Nones then verdicts — sanity that
    // the comparison is not trivially all-None.
    assert!(expected[0][WINDOW - 1].is_some());

    let mut by_worker_count = Vec::new();
    for workers in [1, 4] {
        let handle = start_server(detector.clone(), workers, 64);
        let addr = handle.addr();
        // All hosts stream concurrently: worker scheduling and cross-host
        // interleaving must not leak into any host's verdict sequence.
        let observed: Vec<Vec<Option<Verdict>>> = std::thread::scope(|scope| {
            let join_handles: Vec<_> = hosts
                .iter()
                .zip(&streams)
                .map(|(&h, s)| scope.spawn(move || served_verdicts(addr, h, s)))
                .collect();
            join_handles
                .into_iter()
                .map(|j| j.join().unwrap())
                .collect()
        });
        assert_eq!(
            observed, expected,
            "served verdicts diverged at workers={workers}"
        );
        by_worker_count.push(observed);
        handle.shutdown();
    }
    assert_eq!(by_worker_count[0], by_worker_count[1]);
}

#[test]
fn repeated_runs_are_bit_identical() {
    let detector = trained_detector();
    let stream = host_stream(SEED, 5, STREAM_LEN);
    let mut runs = Vec::new();
    for _ in 0..2 {
        let handle = start_server(detector.clone(), 2, 16);
        runs.push(served_verdicts(handle.addr(), 5, &stream));
        handle.shutdown();
    }
    assert_eq!(runs[0], runs[1]);
}

#[test]
fn malformed_and_wrong_arity_frames_do_not_kill_the_worker() {
    let detector = trained_detector();
    let handle = start_server(detector, 1, 16);
    let addr = handle.addr();
    let mut client = DetectorClient::connect(addr, Duration::from_secs(10)).unwrap();
    let good = host_stream(SEED, 1, 4);

    // 1. Valid-framed garbage payload → Error{malformed}, connection lives.
    let junk = b"{\"this is\":\"not a frame\"}";
    let mut framed = (junk.len() as u32).to_be_bytes().to_vec();
    framed.extend_from_slice(junk);
    client
        .send_raw_for_test(&framed)
        .expect("raw write succeeds");
    match client.recv().unwrap() {
        Frame::Error { code, .. } => assert_eq!(code, ErrorCode::Malformed),
        other => panic!("expected malformed error, got {other:?}"),
    }

    // 2. Wrong-arity Submit → Error{bad_length}, connection lives.
    match client.submit(1, 0, &[1.0, 2.0]) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::BadLength),
        other => panic!("expected bad_length, got {other:?}"),
    }

    // 3. Out-of-order seq → Error{out_of_order}, connection lives.
    assert!(client.submit(1, 10, &good[0]).is_ok());
    match client.submit(1, 10, &good[1]) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::OutOfOrder),
        other => panic!("expected out_of_order, got {other:?}"),
    }

    // 4. The same connection still serves valid traffic afterwards.
    assert!(client.submit(1, 11, &good[1]).is_ok());

    // 5. The abuse is all visible in the drained metrics.
    let stats = client.drain().unwrap();
    assert!(stats.malformed >= 1, "malformed counted: {stats:?}");
    assert!(stats.submits >= 2, "valid submits counted: {stats:?}");

    // 6. An oversized/garbage length prefix gets one Error, then the
    //    server closes that connection — but the service itself survives.
    let mut rogue = DetectorClient::connect(addr, Duration::from_secs(10)).unwrap();
    rogue.send_raw_for_test(b"GET / HTTP/1.1\r\n\r\n").unwrap();
    match rogue.recv().unwrap() {
        Frame::Error { code, .. } => assert_eq!(code, ErrorCode::Oversized),
        other => panic!("expected oversized error, got {other:?}"),
    }
    // Original, well-behaved connection is unaffected.
    assert!(client.submit(1, 12, &good[2]).is_ok());
    handle.shutdown();
}

#[test]
fn overload_is_shed_with_an_explicit_error() {
    let detector = trained_detector();
    // Budget of 1: the first client occupies it, the second must be shed.
    let handle = start_server(detector, 1, 1);
    let addr = handle.addr();
    // The accept thread counts a connection against the budget before it
    // hands the stream to a worker, and only a worker answers `Hello`: a
    // completed handshake means the occupant already holds the budget.
    let _occupant = DetectorClient::connect(addr, Duration::from_secs(10)).unwrap();
    match DetectorClient::connect(addr, Duration::from_secs(10)) {
        Err(ClientError::Handshake(detail)) => {
            assert!(
                detail.contains("overloaded"),
                "shed reply must carry the overloaded code: {detail}"
            );
        }
        Ok(_) => panic!("connection beyond the budget must be shed"),
        Err(other) => panic!("expected overloaded handshake failure, got {other}"),
    }
    let stats = handle.metrics().snapshot();
    assert!(stats.shed >= 1);
    handle.shutdown();
}

/// Regression test for the slow-reader outbuf blowup: a framing-fatal
/// error (oversized prefix) used to be re-queued on *every* pump pass
/// because the decode loop kept running on the un-advanced buffer after
/// `close_after_flush` was set. Against a peer that never drains its
/// replies the flush stalls, the connection survives, and the error frame
/// piles up without bound. Fixed: the error is queued exactly once and
/// decoding stops for good.
///
/// The trigger needs a stalled flush, so the rogue peer first pipelines a
/// burst of `Drain` requests (~28 B in, ~300 B out — enough amplification
/// to overwhelm the loopback socket buffers) and appends the garbage
/// prefix, then never reads a byte.
///
/// Nothing here depends on a sleep being long enough: the test waits for
/// the burst to be decoded, then proves the worker went back over the
/// stalled connection several times before checking the bounds.
#[test]
fn fatal_error_is_queued_once_for_a_slow_reader() {
    // ~560 KB of requests amplify into ~6 MB of replies — beyond anything
    // the kernel's socket-buffer autotuning absorbs on loopback, so the
    // flush genuinely stalls. max_outbuf is raised so read-side
    // backpressure does not kick in before the garbage tail is decoded.
    const DRAINS: usize = 20_000;
    // The readiness pacer probes a connection that makes no progress at
    // least once per 100 ms (its idle cap); the busy-poll loop visits
    // every connection on every pass.
    const PROBE_CAP: Duration = Duration::from_millis(100);
    // Round trips by a second client after the burst is decoded. Each
    // request is sent more than a probe cap after the previous one, when
    // the rogue connection is due again, so the pass of the lone worker
    // that answers it also goes over the rogue connection. The second
    // client's frames out (Hello ack + one verdict per round trip) fit in
    // the bound's slack beside the rogue's Hello ack and single error.
    const PASSES: usize = 4;
    for event_loop in [EventLoop::BusyPoll, EventLoop::Readiness] {
        let detector = trained_detector();
        let handle = start_server_cfg(detector, 1, 16, |c| {
            c.event_loop = event_loop;
            c.max_outbuf = 64 << 20;
        });
        let addr = handle.addr();
        let mut rogue = DetectorClient::connect(addr, Duration::from_secs(10)).unwrap();
        let drain = encode(&Frame::Drain { stats: None });
        let mut burst = Vec::with_capacity(DRAINS * drain.len() + 32);
        for _ in 0..DRAINS {
            burst.extend_from_slice(&drain);
        }
        burst.extend_from_slice(b"GET / HTTP/1.1\r\n\r\n"); // oversized prefix
        rogue.send_raw_for_test(&burst).unwrap();

        // Never read from `rogue`. Wait until the worker has decoded the
        // whole burst, garbage tail included.
        let deadline = std::time::Instant::now() + Duration::from_secs(120);
        loop {
            let stats = handle.metrics().snapshot();
            if stats.malformed >= 1 && stats.frames_in >= DRAINS as u64 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "burst never decoded ({event_loop:?}): {stats:?}"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        // Then make the worker revisit the rogue connection: the buggy
        // loop re-queued the error on every such pass.
        let mut probe = DetectorClient::connect(addr, Duration::from_secs(30)).unwrap();
        for (seq, r) in host_stream(SEED, 9, PASSES).iter().enumerate() {
            std::thread::sleep(PROBE_CAP + Duration::from_millis(20));
            probe
                .submit(9, seq as u64, r)
                .expect("the worker keeps serving");
        }
        let stats = handle.metrics().snapshot();
        assert_eq!(
            stats.malformed, 1,
            "fatal framing error must be counted exactly once ({event_loop:?}): {stats:?}"
        );
        assert!(
            stats.frames_out <= DRAINS as u64 + 8,
            "backlog must stay bounded by real replies ({event_loop:?}): {stats:?}"
        );
        drop((rogue, probe));
        handle.shutdown();
    }
}

/// Shed replies are written best-effort and nonblocking from the accept
/// thread: a pile of shed peers that never read a byte must not stall
/// later accepts.
#[test]
fn accepts_proceed_while_shed_peers_refuse_to_read() {
    let detector = trained_detector();
    let handle = start_server(detector, 1, 1);
    let addr = handle.addr();
    // Counted against the budget once its handshake completes (see
    // `overload_is_shed_with_an_explicit_error`).
    let mut occupant = DetectorClient::connect(addr, Duration::from_secs(10)).unwrap();

    // 32 raw connections that will be shed and never read their error.
    let stubborn: Vec<std::net::TcpStream> = (0..32)
        .map(|_| std::net::TcpStream::connect(addr).expect("tcp connect"))
        .collect();
    // The accept loop must chew through all of them promptly.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let stats = handle.metrics().snapshot();
        if stats.shed >= 32 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "accept loop stalled behind non-reading shed peers: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    // The occupant is still served, and once it leaves, a fresh client
    // gets through — the accept thread never wedged.
    let good = host_stream(SEED, 2, 4);
    assert!(occupant.submit(2, 0, &good[0]).is_ok());
    drop(occupant);
    drop(stubborn);
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let mut fresh = loop {
        match DetectorClient::connect(addr, Duration::from_secs(2)) {
            Ok(c) => break c,
            Err(_) if std::time::Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => panic!("fresh client never admitted after occupant left: {e}"),
        }
    };
    assert!(fresh.submit(3, 0, &good[1]).is_ok());
    handle.shutdown();
}

/// Byte-level identity for the verdict stream: per host, `(host, seq,
/// verdict kind, class, confidence bits)` — `PartialEq` on `f64` would let
/// ±0.0 differences slide.
type VerdictBits = (u64, u64, u8, u8, u64);

fn verdict_bits(host: u64, seq: u64, v: &Option<Verdict>) -> VerdictBits {
    match v {
        None => (host, seq, 0, 0, 0),
        Some(Verdict::Benign) => (host, seq, 1, 0, 0),
        Some(Verdict::Malware { class, confidence }) => (
            host,
            seq,
            2,
            AppClass::ALL.iter().position(|c| c == class).unwrap() as u8,
            confidence.to_bits(),
        ),
    }
}

#[test]
fn verdict_streams_are_identical_across_protocols_and_event_loops() {
    let detector = trained_detector();
    let hosts: Vec<u64> = vec![6, 27];
    let streams: Vec<Vec<Vec<f64>>> = hosts
        .iter()
        .map(|&h| host_stream(SEED, h, STREAM_LEN))
        .collect();
    let expected: Vec<Vec<VerdictBits>> = hosts
        .iter()
        .zip(&streams)
        .map(|(&h, s)| {
            expected_verdicts(&detector, s)
                .iter()
                .enumerate()
                .map(|(seq, v)| verdict_bits(h, seq as u64, v))
                .collect()
        })
        .collect();

    for event_loop in [EventLoop::Readiness, EventLoop::BusyPoll] {
        for workers in [1, 4] {
            for format in [WireFormat::V1Json, WireFormat::V2Binary] {
                let handle =
                    start_server_cfg(detector.clone(), workers, 64, |c| c.event_loop = event_loop);
                let addr = handle.addr();
                let observed: Vec<Vec<VerdictBits>> = hosts
                    .iter()
                    .zip(&streams)
                    .map(|(&h, s)| {
                        let mut client =
                            DetectorClient::connect_with(addr, Duration::from_secs(10), format)
                                .expect("connects");
                        assert_eq!(client.protocol(), format);
                        s.iter()
                            .enumerate()
                            .map(|(seq, r)| {
                                let v = client.submit(h, seq as u64, r).expect("submit succeeds");
                                verdict_bits(h, seq as u64, &v)
                            })
                            .collect()
                    })
                    .collect();
                assert_eq!(
                    observed, expected,
                    "verdict stream diverged at {event_loop:?} workers={workers} {format:?}"
                );
                handle.shutdown();
            }
        }
    }
}

/// A malformed frame pipelined *between* two valid ones must produce
/// exactly Verdict, Error{malformed}, Verdict — on both protocol versions.
#[test]
fn pipelined_malformed_frame_recovers_on_both_versions() {
    let detector = trained_detector();
    let handle = start_server(detector, 2, 16);
    let addr = handle.addr();
    for (host, format) in [(60u64, WireFormat::V1Json), (61u64, WireFormat::V2Binary)] {
        let mut client =
            DetectorClient::connect_with(addr, Duration::from_secs(10), format).unwrap();
        let good = host_stream(SEED, host, 4);
        let junk: &[u8] = match format {
            WireFormat::V1Json => b"[not a frame]",
            WireFormat::V2Binary => &[0x77, 1, 2, 3],
        };
        let mut framed = (junk.len() as u32).to_be_bytes().to_vec();
        framed.extend_from_slice(junk);

        // Pipeline all three without reading anything yet.
        client
            .send(&Frame::Submit {
                host_id: host,
                seq: 0,
                counters: good[0].clone(),
            })
            .unwrap();
        client.send_raw_for_test(&framed).unwrap();
        client
            .send(&Frame::Submit {
                host_id: host,
                seq: 1,
                counters: good[1].clone(),
            })
            .unwrap();

        match client.recv().unwrap() {
            Frame::Verdict { host_id, seq, .. } => assert_eq!((host_id, seq), (host, 0)),
            other => panic!("{format:?}: expected verdict, got {other:?}"),
        }
        match client.recv().unwrap() {
            Frame::Error { code, .. } => assert_eq!(code, ErrorCode::Malformed, "{format:?}"),
            other => panic!("{format:?}: expected malformed error, got {other:?}"),
        }
        match client.recv().unwrap() {
            Frame::Verdict { host_id, seq, .. } => assert_eq!((host_id, seq), (host, 1)),
            other => panic!("{format:?}: expected verdict, got {other:?}"),
        }
    }
    handle.shutdown();
}

#[test]
fn protocol_negotiation_serves_old_and_new_clients() {
    let detector = trained_detector();
    let handle = start_server(detector, 2, 16);
    let addr = handle.addr();
    let good = host_stream(SEED, 70, 4);

    // A v1 client connects with the default handshake, untouched by v2.
    let mut v1 = DetectorClient::connect(addr, Duration::from_secs(10)).unwrap();
    assert_eq!(v1.protocol(), WireFormat::V1Json);
    assert!(v1.submit(70, 0, &good[0]).is_ok());

    // A v2 client negotiates binary and gets bit-identical service,
    // including a Drain snapshot over the packed layout.
    let mut v2 =
        DetectorClient::connect_with(addr, Duration::from_secs(10), WireFormat::V2Binary).unwrap();
    assert_eq!(v2.protocol(), WireFormat::V2Binary);
    assert!(v2.submit(71, 0, &good[1]).is_ok());
    let stats = v2.drain().unwrap();
    assert!(stats.submits >= 2, "{stats:?}");

    // An unknown version is answered with Error{unsupported_version} and
    // the connection keeps speaking v1.
    v1.send(&Frame::Hello { version: 3 }).unwrap();
    match v1.recv().unwrap() {
        Frame::Error { code, detail } => {
            assert_eq!(code, ErrorCode::UnsupportedVersion);
            assert!(detail.contains("v3"), "{detail}");
        }
        other => panic!("expected unsupported_version, got {other:?}"),
    }
    assert!(v1.submit(70, 1, &good[2]).is_ok(), "connection stays v1");
    handle.shutdown();
}

/// Incremental flush: replies that overflow the socket buffers reach a
/// slow reader intact and in order, and after a fatal frame the server
/// flushes everything queued *before* closing (`close_after_flush`).
#[test]
fn slow_reader_gets_every_reply_then_the_fatal_error_then_eof() {
    const DRAINS: usize = 2_000;
    let detector = trained_detector();
    let handle = start_server(detector, 1, 16);
    let addr = handle.addr();
    let mut client = DetectorClient::connect(addr, Duration::from_secs(10)).unwrap();
    let drain = encode(&Frame::Drain { stats: None });
    let mut burst = Vec::with_capacity(DRAINS * drain.len() + 32);
    for _ in 0..DRAINS {
        burst.extend_from_slice(&drain);
    }
    burst.extend_from_slice(b"\xff\xff\xff\xff oversized"); // fatal tail
    client.send_raw_for_test(&burst).unwrap();

    // Read slowly: the server must flush in increments as the socket
    // drains, never dropping or reordering a reply.
    for i in 0..DRAINS {
        if i % 400 == 0 {
            std::thread::sleep(Duration::from_millis(5));
        }
        match client.recv() {
            Ok(Frame::Drain { stats: Some(_) }) => {}
            other => panic!("reply {i}: expected drain snapshot, got {other:?}"),
        }
    }
    match client.recv().unwrap() {
        Frame::Error { code, .. } => assert_eq!(code, ErrorCode::Oversized),
        other => panic!("expected oversized error, got {other:?}"),
    }
    assert!(
        matches!(client.recv(), Err(ClientError::Closed)),
        "connection must close after the flushed fatal error"
    );
    handle.shutdown();
}

#[test]
fn graceful_shutdown_finishes_buffered_work() {
    let detector = trained_detector();
    let handle = start_server(detector, 2, 16);
    let addr = handle.addr();
    let stream = host_stream(SEED, 8, 8);
    let mut client = DetectorClient::connect(addr, Duration::from_secs(10)).unwrap();
    for (seq, r) in stream.iter().enumerate() {
        client.submit(8, seq as u64, r).unwrap();
    }
    assert_eq!(handle.sessions(), 1);
    // Must return (drain + join), not hang.
    handle.shutdown();
    // After shutdown the port no longer accepts work.
    assert!(DetectorClient::connect(addr, Duration::from_secs(1)).is_err());
}
