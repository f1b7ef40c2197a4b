//! `fleet_churn`: short-lived hosts churn through one in-memory
//! `SessionEngine` via the real connection pump.
//!
//! Virtual time advances in ticks (`TimeSource::External`). Every tick
//! `arrivals` new hosts connect over `hmd_sim::transport::duplex` and say
//! `Hello` (even host indices as v1 JSON clients, odd ones as v2); every
//! connected host submits its next reading and reads the verdict, one
//! reading per pump, so the cascade runs at batch size 1; a host that has
//! sent its last reading hangs up; then an idle sweep evicts the sessions
//! of hosts that left `idle_after` ticks ago, and later arrivals reuse the
//! freed slots. One round replays the whole schedule into a fresh engine.

use crate::common::{fnv1a, median, secs, thread_cpu_ns, vm_hwm_kib, vm_rss_kib, Ledger, Outcome};
use crate::model::{self, VOTES, WINDOW};
use hmd_hpc_sim::workload::AppClass;
use hmd_serve::metrics::Metrics;
use hmd_serve::protocol::{
    self, encode_frame_into, Frame, FrameBuffer, WireFormat, PROTOCOL_VERSION, PROTOCOL_VERSION_V2,
};
use hmd_serve::service::{pump, Conn, Service, ServiceLimits};
use hmd_serve::session::{SessionConfig, SessionEngine, SubmitBatch, TimeSource};
use hmd_serve::wire2;
use hmd_sim::transport::{duplex, SimStream};
use hmd_sim::workload::StreamGen;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::sync::Arc;
use std::time::Instant;
use twosmart::detector::{
    CascadeMode, CascadeVerdict, DetectBatchScratch, TwoSmartDetector, Verdict,
};
use twosmart::online::OnlineDetector;

/// Shards of the engine (the `SessionConfig` default).
const SHARDS: usize = 16;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 101;

/// Fleet shape.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Hosts connecting per tick.
    pub arrivals: usize,
    /// Ticks during which hosts arrive.
    pub arrive_ticks: usize,
    /// Readings each host submits before leaving.
    pub readings: usize,
    /// Idle ticks before a departed host's session is evictable.
    pub idle_after: u64,
}

impl Size {
    pub const FULL: Size = Size {
        arrivals: 512,
        arrive_ticks: 48,
        readings: 16,
        idle_after: 4,
    };
    pub const SMOKE: Size = Size {
        arrivals: 24,
        arrive_ticks: 6,
        readings: 12,
        idle_after: 2,
    };

    pub fn hosts(&self) -> usize {
        self.arrivals * self.arrive_ticks
    }

    pub fn submits(&self) -> usize {
        self.hosts() * self.readings
    }

    /// Expected peak of resident sessions: a host is resident from its
    /// first submit until the sweep `idle_after + 1` ticks after its last,
    /// so that many arrival cohorts overlap (or all of them, if fewer).
    pub fn resident_peak(&self) -> usize {
        self.arrivals
            * self
                .arrive_ticks
                .min(self.readings + self.idle_after as usize + 1)
    }
}

/// The seed-derived inputs: every host's readings and its pre-encoded
/// `Submit` frames.
pub struct Inputs {
    pub size: Size,
    readings: Vec<f64>,
    frames: Vec<u8>,
    /// Byte offset of frame `h * readings + j` (plus a final end offset).
    frame_at: Vec<usize>,
    hello: [Vec<u8>; 2],
}

fn host_id(h: usize) -> u64 {
    h as u64 + 1
}

fn format_of(h: usize) -> WireFormat {
    if h.is_multiple_of(2) {
        WireFormat::V1Json
    } else {
        WireFormat::V2Binary
    }
}

impl Inputs {
    pub fn generate(seed: u64, size: Size) -> Inputs {
        let gen = StreamGen::new();
        let r = size.readings;
        let mut readings = Vec::with_capacity(size.submits() * 4);
        let mut frames = Vec::new();
        let mut frame_at = Vec::with_capacity(size.submits() + 1);
        let mut json = String::new();
        for h in 0..size.hosts() {
            let stream = gen.stream(seed, host_id(h), r);
            for (j, reading) in stream.into_iter().enumerate() {
                readings.extend_from_slice(&reading);
                frame_at.push(frames.len());
                let frame = Frame::Submit {
                    host_id: host_id(h),
                    seq: j as u64 + 1,
                    counters: reading,
                };
                encode_frame_into(format_of(h), &frame, &mut json, &mut frames);
            }
        }
        frame_at.push(frames.len());
        let hello = [PROTOCOL_VERSION, PROTOCOL_VERSION_V2]
            .map(|version| protocol::encode(&Frame::Hello { version }));
        Inputs {
            size,
            readings,
            frames,
            frame_at,
            hello,
        }
    }

    fn reading(&self, h: usize, j: usize) -> &[f64] {
        let i = (h * self.size.readings + j) * 4;
        &self.readings[i..i + 4]
    }

    fn frame(&self, h: usize, j: usize) -> &[u8] {
        let i = h * self.size.readings + j;
        &self.frames[self.frame_at[i]..self.frame_at[i + 1]]
    }

    fn hello(&self, h: usize) -> &[u8] {
        &self.hello[h % 2]
    }

    /// Bytes the inputs occupy (readings, frames, offsets).
    pub fn bytes(&self) -> usize {
        self.readings.len() * 8 + self.frames.len() + self.frame_at.len() * 8
    }

    /// Fingerprint of the generated inputs (stable per seed).
    pub fn fingerprint(&self) -> u64 {
        fnv1a(&self.frames)
    }
}

/// A fresh service with the workload's session configuration.
pub fn build_service(detector: TwoSmartDetector, size: Size) -> Service {
    let config = SessionConfig {
        shards: SHARDS,
        window: WINDOW,
        votes: VOTES,
        idle_after: size.idle_after,
        time: TimeSource::External,
        cascade: CascadeMode::Always,
        ..SessionConfig::default()
    };
    let metrics = Arc::new(Metrics::new());
    let engine = SessionEngine::new(detector, &config, Arc::clone(&metrics))
        .expect("the served detector is deployable");
    let limits = ServiceLimits {
        evict_every: 0,
        ..ServiceLimits::default()
    };
    Service::new(engine, metrics, limits)
}

struct HostConn {
    h: usize,
    client: SimStream,
    conn: Conn<SimStream>,
}

/// Per-round figures; the pump timings are filled only when traced.
#[derive(Debug, Default)]
struct Round {
    wall_s: f64,
    peak_resident: usize,
    evicted: usize,
    pump_submit_ns: f64,
    pump_other_ns: f64,
    sweep_ns: f64,
}

fn drain_client(client: &mut SimStream, buf: &mut [u8], replies: &mut Vec<u8>) {
    loop {
        match client.read(buf) {
            Ok(0) => return,
            Ok(n) => replies.extend_from_slice(&buf[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock => return,
            Err(_) => return,
        }
    }
}

/// Replays the whole schedule once into `service`, appending every reply
/// byte to `replies` in schedule order and each submit's turnaround (from
/// the host's write to its reply read, in ns) to `turnaround`.
fn replay_round(
    inputs: &Inputs,
    service: &Service,
    replies: &mut Vec<u8>,
    turnaround: &mut Vec<u32>,
    traced: bool,
) -> Round {
    let size = inputs.size;
    let a = size.arrivals;
    let r = size.readings;
    let mut active: VecDeque<HostConn> = VecDeque::with_capacity(a * (r + 1));
    let mut chunk = vec![0u8; 16 * 1024];
    let mut readbuf = vec![0u8; 4096];
    let mut evicted = Vec::new();
    let mut round = Round::default();
    let timed = |on: bool| if on { Some(Instant::now()) } else { None };
    let elapsed_ns = |t: Option<Instant>| t.map_or(0.0, |t| t.elapsed().as_nanos() as f64);
    let start = Instant::now();
    let mut t = 0usize;
    loop {
        service.engine.set_time(t as u64);
        if t < size.arrive_ticks {
            for k in 0..a {
                let (client, server) = duplex();
                active.push_back(HostConn {
                    h: t * a + k,
                    client,
                    conn: Conn::new(server),
                });
            }
        }
        for hc in active.iter_mut() {
            let phase = t - hc.h / a;
            if phase == 0 {
                let _ = hc.client.write_all(inputs.hello(hc.h));
                let t0 = timed(traced);
                pump(&mut hc.conn, service, &mut chunk, false);
                round.pump_other_ns += elapsed_ns(t0);
                drain_client(&mut hc.client, &mut readbuf, replies);
                continue;
            }
            let j = phase - 1;
            let sent = Instant::now();
            let _ = hc.client.write_all(inputs.frame(hc.h, j));
            let t0 = timed(traced);
            pump(&mut hc.conn, service, &mut chunk, false);
            round.pump_submit_ns += elapsed_ns(t0);
            drain_client(&mut hc.client, &mut readbuf, replies);
            turnaround.push(sent.elapsed().as_nanos() as u32);
            if j + 1 == r {
                hc.client.close();
                let t0 = timed(traced);
                pump(&mut hc.conn, service, &mut chunk, false);
                round.pump_other_ns += elapsed_ns(t0);
            }
        }
        while active.front().is_some_and(|hc| hc.conn.is_dead()) {
            active.pop_front();
        }
        let resident = service.engine.sessions();
        round.peak_resident = round.peak_resident.max(resident);
        let t0 = timed(traced);
        service.engine.evict_idle_at_into(t as u64, &mut evicted);
        round.sweep_ns += elapsed_ns(t0);
        round.evicted += evicted.len();
        t += 1;
        if t >= size.arrive_ticks && active.is_empty() && service.engine.sessions() == 0 {
            break;
        }
    }
    round.wall_s = secs(start);
    round
}

/// The verdict sequence the scalar `OnlineDetector::push` path gives each
/// host — a separate code path from the service's batched cascade.
fn scalar_verdicts(inputs: &Inputs, detector: &TwoSmartDetector) -> Vec<Option<Verdict>> {
    let size = inputs.size;
    let mut od = OnlineDetector::new(detector.clone(), WINDOW, VOTES).expect("deployable");
    let mut out = Vec::with_capacity(size.submits());
    for h in 0..size.hosts() {
        od.reset();
        for j in 0..size.readings {
            out.push(od.push(inputs.reading(h, j)));
        }
    }
    out
}

/// Walks the schedule in the order [`replay_round`] ran it and checks each
/// reply: one frame per step, the right kind, host and sequence, no
/// `Error`, warm-up exactly for the first `WINDOW - 1` readings, and each
/// verdict equal to the scalar replay. Returns the verdict frames decoded
/// per submit and the number of submits whose reply was wrong.
fn check_replies(
    inputs: &Inputs,
    replies: &[u8],
    expected: &[Option<Verdict>],
    out: &mut Outcome,
) -> (Vec<Option<Verdict>>, u64) {
    let size = inputs.size;
    let (a, r) = (size.arrivals, size.readings);
    let mut got = vec![None; size.submits()];
    let mut bad = 0u64;
    let mut at = 0usize;
    let next = |at: &mut usize| -> Option<&[u8]> {
        let len = u32::from_be_bytes(replies.get(*at..*at + 4)?.try_into().ok()?) as usize;
        let payload = replies.get(*at + 4..*at + 4 + len)?;
        *at += 4 + len;
        Some(payload)
    };
    let last_tick = size.arrive_ticks - 1 + r;
    for t in 0..=last_tick {
        let lo = t.saturating_sub(r) * a;
        let hi = (t + 1).min(size.arrive_ticks) * a;
        for h in lo..hi {
            let phase = t - h / a;
            let Some(payload) = next(&mut at) else {
                out.check(false, || {
                    format!("fleet: reply stream ends early at host {h}")
                });
                return (got, bad + 1);
            };
            if phase == 0 {
                let want = format_of(h).version();
                let ok = matches!(protocol::decode_payload(payload), Ok(Frame::Hello { version }) if version == want);
                out.check(ok, || {
                    format!("fleet: host {h} handshake reply is not Hello v{want}")
                });
                continue;
            }
            let j = phase - 1;
            let decoded = match format_of(h) {
                WireFormat::V1Json => protocol::decode_payload(payload),
                WireFormat::V2Binary => wire2::decode_payload(payload),
            };
            let i = h * r + j;
            match decoded {
                Ok(Frame::Verdict {
                    host_id: id,
                    seq,
                    verdict,
                }) if id == host_id(h) && seq == j as u64 + 1 => {
                    let warm = j + 1 < WINDOW;
                    let ok = verdict.is_none() == warm && verdict == expected[i];
                    if !ok {
                        bad += 1;
                    }
                    out.check(ok, || {
                        format!(
                            "fleet: host {h} seq {}: verdict {verdict:?}, scalar replay {:?}",
                            j + 1,
                            expected[i]
                        )
                    });
                    got[i] = verdict;
                }
                other => {
                    bad += 1;
                    out.check(false, || {
                        format!("fleet: host {h} seq {}: unexpected reply {other:?}", j + 1)
                    });
                }
            }
        }
    }
    out.check(at == replies.len(), || {
        format!(
            "fleet: {} reply bytes after the last expected frame",
            replies.len() - at
        )
    });
    (got, bad)
}

/// Checks the service's own counters after a round.
fn check_counters(service: &Service, size: Size, round: &Round, out: &mut Outcome) {
    let s = service.metrics.snapshot();
    let hosts = size.hosts() as u64;
    let submits = size.submits() as u64;
    out.check(s.submits == submits, || {
        format!("fleet: Drain submits {} != sent {submits}", s.submits)
    });
    out.check(s.frames_in == submits + hosts, || {
        format!(
            "fleet: Drain frames_in {} != sent {}",
            s.frames_in,
            submits + hosts
        )
    });
    out.check(s.malformed == 0 && s.shed == 0, || {
        format!(
            "fleet: malformed {} shed {} (sent none)",
            s.malformed, s.shed
        )
    });
    out.check(s.verdicts.warmup == hosts * (WINDOW as u64 - 1), || {
        format!(
            "fleet: {} warm-up replies, expected {}",
            s.verdicts.warmup,
            hosts * (WINDOW as u64 - 1)
        )
    });
    out.check(
        s.evictions == hosts && round.evicted as u64 == hosts,
        || {
            format!(
                "fleet: {} evictions for {hosts} departed hosts",
                s.evictions
            )
        },
    );
    out.check(s.sessions == 0 && service.engine.sessions() == 0, || {
        format!(
            "fleet: {} sessions remain after the final sweep",
            service.engine.sessions()
        )
    });
    out.check(round.peak_resident == size.resident_peak(), || {
        format!(
            "fleet: peak {} resident sessions, schedule implies {}",
            round.peak_resident,
            size.resident_peak()
        )
    });
}

/// Median set-up time: snapshot restore plus service build.
fn setup(json: &str, size: Size) -> (f64, TwoSmartDetector) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut detector = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let d = model::restore(json);
        let service = build_service(d.clone(), size);
        times.push(secs(t0));
        drop(service);
        detector = Some(d);
    }
    (median(&times), detector.expect("at least one set-up"))
}

/// The untraced run: end-to-end metrics.
pub fn run(seed: u64, seconds: f64, size: Size) -> Outcome {
    let mut out = Outcome::default();
    let json = model::snapshot_json();
    let inputs = Inputs::generate(seed, size);
    eprintln!(
        "fleet_churn inputs: {} hosts x {} readings, {:.1} MiB of readings and frames (fingerprint {:016x}), process RSS {:.1} MiB",
        size.hosts(),
        size.readings,
        inputs.bytes() as f64 / (1024.0 * 1024.0),
        inputs.fingerprint(),
        vm_rss_kib() as f64 / 1024.0
    );
    let (setup_s, detector) = setup(&json, size);
    let expected = scalar_verdicts(&inputs, &detector);

    // Round 0: warm-up and full reply verification (untimed).
    let mut replies = Vec::new();
    let mut turnaround = Vec::with_capacity(size.submits());
    let service = build_service(detector.clone(), size);
    let round = replay_round(&inputs, &service, &mut replies, &mut turnaround, false);
    let (_, bad) = check_replies(&inputs, &replies, &expected, &mut out);
    check_counters(&service, size, &round, &mut out);
    drop(service);
    let reference = fnv1a(&replies);
    out.attempted += size.submits() as u64;
    out.failed += bad;

    // Timed rounds, each into a fresh engine: per round, the submit rate,
    // the median turnaround and the replaying thread's CPU per submit.
    let (mut rates, mut p50s, mut cpus) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while rates.is_empty() || secs(start) < seconds {
        replies.clear();
        turnaround.clear();
        let service = build_service(detector.clone(), size);
        let cpu0 = thread_cpu_ns();
        let round = replay_round(&inputs, &service, &mut replies, &mut turnaround, false);
        cpus.push((thread_cpu_ns() - cpu0) as f64 / 1e3 / size.submits() as f64);
        rates.push(size.submits() as f64 / round.wall_s);
        let mid = turnaround.len() / 2;
        p50s.push(f64::from(*turnaround.select_nth_unstable(mid).1) / 1e3);
        check_counters(&service, size, &round, &mut out);
        out.check(fnv1a(&replies) == reference, || {
            "fleet: a timed round's replies differ from the verified round's".into()
        });
        out.attempted += size.submits() as u64;
        out.failed += bad;
    }
    out.metric("setup_s", setup_s, "s");
    out.metric("ops_per_s", median(&rates), "1/s");
    out.metric("lat_p50_us", median(&p50s), "us");
    out.metric("cpu_us_per_op", median(&cpus), "us");
    out.metric("peak_rss_mb", vm_hwm_kib() as f64 / 1024.0, "MiB");
    out
}

/// Shard a host lands on (the engine's own `derive_seed` mapping), used to
/// tell an admission that grows a shard's slab from one that reuses a
/// freed slot.
fn shard_of(host: u64) -> usize {
    (hmd_ml::par::derive_seed(host, 0) % SHARDS as u64) as usize
}

/// Session-layer replay: the same submits, in the same ticks and batch
/// compositions (one submit per `submit_batch`), straight into a fresh
/// engine, with each call timed and classified.
struct SessionLayer {
    grow_ns: f64,
    grows: usize,
    reuse_ns: f64,
    reuses: usize,
    resident_ns: f64,
    residents: usize,
    evict_ns: f64,
    evictions: usize,
    calls: usize,
    rss_kib_per_session: f64,
    gauge_kib: f64,
}

fn session_layer(inputs: &Inputs, detector: &TwoSmartDetector) -> SessionLayer {
    let size = inputs.size;
    let (a, r) = (size.arrivals, size.readings);
    let service = build_service(detector.clone(), size);
    let engine = &service.engine;
    let rss_before = vm_rss_kib();
    let mut rss_at_peak = rss_before;
    let mut peak = 0usize;
    let mut shard_resident = [0usize; SHARDS];
    let mut shard_high = [0usize; SHARDS];
    let mut batch = SubmitBatch::new();
    let mut evicted = Vec::new();
    let mut l = SessionLayer {
        grow_ns: 0.0,
        grows: 0,
        reuse_ns: 0.0,
        reuses: 0,
        resident_ns: 0.0,
        residents: 0,
        evict_ns: 0.0,
        evictions: 0,
        calls: 0,
        rss_kib_per_session: 0.0,
        gauge_kib: engine.session_bytes_estimate() as f64 / 1024.0,
    };
    let last_tick = size.arrive_ticks + r + size.idle_after as usize + 1;
    for t in 0..=last_tick {
        engine.set_time(t as u64);
        let lo = t.saturating_sub(r) * a;
        let hi = t.min(size.arrive_ticks) * a;
        for h in lo..hi {
            let j = t - h / a - 1;
            batch.push(host_id(h), j as u64 + 1, inputs.reading(h, j));
            let t0 = Instant::now();
            engine.submit_batch(&mut batch);
            let ns = t0.elapsed().as_nanos() as f64;
            batch.clear();
            l.calls += 1;
            if j == 0 {
                let s = shard_of(host_id(h));
                shard_resident[s] += 1;
                if shard_resident[s] > shard_high[s] {
                    shard_high[s] = shard_resident[s];
                    l.grow_ns += ns;
                    l.grows += 1;
                } else {
                    l.reuse_ns += ns;
                    l.reuses += 1;
                }
            } else {
                l.resident_ns += ns;
                l.residents += 1;
            }
        }
        let resident: usize = shard_resident.iter().sum();
        if resident > peak {
            peak = resident;
            rss_at_peak = vm_rss_kib();
        }
        let t0 = Instant::now();
        engine.evict_idle_at_into(t as u64, &mut evicted);
        let ns = t0.elapsed().as_nanos() as f64;
        if !evicted.is_empty() {
            l.evict_ns += ns;
            l.evictions += evicted.len();
        }
        for &id in &evicted {
            shard_resident[shard_of(id)] -= 1;
        }
    }
    l.rss_kib_per_session = rss_at_peak.saturating_sub(rss_before) as f64 / peak.max(1) as f64;
    l
}

/// Windowing, cascade and vote layers, replayed over the same readings
/// and the same feature rows at the workload's batch size of one.
struct ModelLayer {
    window_ns: f64,
    detect_ns: f64,
    stage1_ns: f64,
    vote_ns: f64,
    ready: usize,
}

/// Best of `REPS` timings of `body`, in ns: each layer loop runs a few
/// times over the same inputs and keeps its fastest pass, so a scheduling
/// hiccup does not land in one row.
fn best_ns(mut body: impl FnMut()) -> f64 {
    const REPS: usize = 3;
    (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            body();
            t0.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min)
}

fn model_layer(
    inputs: &Inputs,
    detector: &TwoSmartDetector,
    expected: &[Option<Verdict>],
    out: &mut Outcome,
) -> ModelLayer {
    let size = inputs.size;
    let r = size.readings;
    let mut od = OnlineDetector::new(detector.clone(), WINDOW, VOTES).expect("deployable");
    let mut rows: Vec<f64> = Vec::with_capacity(size.hosts() * (r + 1 - WINDOW) * 44);
    let window_ns = best_ns(|| {
        rows.clear();
        for h in 0..size.hosts() {
            od.reset();
            for j in 0..r {
                let mut f = [0.0; 44];
                if od
                    .advance_window(inputs.reading(h, j), &mut f)
                    .expect("arity")
                {
                    rows.extend_from_slice(&f);
                }
            }
        }
    }) / size.submits() as f64;
    let ready = rows.len() / 44;

    let mut scratch = DetectBatchScratch::new();
    let mut cv: Vec<CascadeVerdict> = Vec::with_capacity(1);
    let mut raw = Vec::with_capacity(ready);
    let detect_ns = best_ns(|| {
        raw.clear();
        for row in rows.chunks_exact(44) {
            detector.detect_batch_with(row, CascadeMode::Always, &mut scratch, &mut cv);
            raw.push(cv[0].verdict);
        }
    }) / ready as f64;

    let mut cols = hmd_ml::batch::BatchScratch::new();
    let (mut proba, mut routed) = (Vec::new(), Vec::<AppClass>::new());
    let stage1_ns = best_ns(|| {
        for row in rows.chunks_exact(44) {
            detector
                .stage1()
                .route_batch_with(row, &mut cols, &mut proba, &mut routed);
        }
    }) / ready as f64;

    let per_host = r + 1 - WINDOW;
    let mut smoothed = Vec::with_capacity(ready);
    let vote_ns = best_ns(|| {
        smoothed.clear();
        for host_raw in raw.chunks_exact(per_host) {
            od.reset();
            for &v in host_raw {
                smoothed.push(od.apply_verdict(v));
            }
        }
    }) / ready as f64;
    let mismatches = (0..size.hosts())
        .flat_map(|h| (WINDOW - 1..r).map(move |j| (h, j)))
        .zip(&smoothed)
        .filter(|&((h, j), v)| expected[h * r + j] != Some(*v))
        .count();
    out.check(mismatches == 0, || {
        format!("fleet ledger: {mismatches} layer-replayed verdicts differ from the scalar replay")
    });
    ModelLayer {
        window_ns,
        detect_ns,
        stage1_ns,
        vote_ns,
        ready,
    }
}

/// Codec layers over the workload's own frames: Submit decode per format,
/// Verdict encode per format. Returns (v1 decode, v2 decode, v1 encode,
/// v2 encode) in ns per frame.
fn codec_layer(inputs: &Inputs, verdicts: &[Option<Verdict>]) -> [f64; 4] {
    const GROUP: usize = 32;
    let size = inputs.size;
    let r = size.readings;
    let mut totals = [0.0f64; 4];
    let mut counts = [0usize; 4];
    let mut counters = Vec::with_capacity(4);
    let mut json = String::new();
    let mut outbuf = Vec::new();
    let mut bytes = Vec::new();
    for parity in 0..2 {
        let format = format_of(parity);
        let hosts: Vec<usize> = (parity..size.hosts()).step_by(2).collect();
        for group in hosts.chunks(GROUP) {
            bytes.clear();
            for &h in group {
                for j in 0..r {
                    bytes.extend_from_slice(inputs.frame(h, j));
                }
            }
            let n = group.len() * r;
            totals[parity] += best_ns_with(
                || {
                    let mut fb = FrameBuffer::with_format(format);
                    fb.extend(&bytes);
                    fb
                },
                |mut fb| match format {
                    WireFormat::V1Json => while let Ok(Some(_frame)) = fb.next_frame() {},
                    WireFormat::V2Binary => {
                        while let Ok(Some(payload)) = fb.next_payload() {
                            if wire2::is_submit(payload) {
                                wire2::decode_submit_into(payload, &mut counters);
                            }
                        }
                    }
                },
            );
            counts[parity] += n;
            totals[2 + parity] += best_ns(|| {
                outbuf.clear();
                for &h in group {
                    for j in 0..r {
                        let frame = Frame::Verdict {
                            host_id: host_id(h),
                            seq: j as u64 + 1,
                            verdict: verdicts[h * r + j],
                        };
                        encode_frame_into(format, &frame, &mut json, &mut outbuf);
                    }
                }
            });
            counts[2 + parity] += n;
        }
    }
    [0, 1, 2, 3].map(|i| totals[i] / counts[i].max(1) as f64)
}

/// [`best_ns`] with an untimed `prepare` step before each timed `body`.
fn best_ns_with<T>(mut prepare: impl FnMut() -> T, mut body: impl FnMut(T)) -> f64 {
    const REPS: usize = 3;
    (0..REPS)
        .map(|_| {
            let input = prepare();
            let t0 = Instant::now();
            body(input);
            t0.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// The traced run: the fleet's ledger and its per-layer metrics.
pub fn trace(seed: u64, size: Size, json: &str) -> Outcome {
    let mut out = Outcome::default();
    let inputs = Inputs::generate(seed, size);
    let detector = model::restore(json);
    let expected = scalar_verdicts(&inputs, &detector);
    let submits = size.submits() as f64;

    // The session layer runs first, on a heap no earlier round has grown,
    // so its RSS growth is the sessions' own.
    let sl = session_layer(&inputs, &detector);
    let ml = model_layer(&inputs, &detector, &expected, &mut out);

    let mut replies = Vec::new();
    let service = build_service(detector.clone(), size);
    let mut turnaround = Vec::with_capacity(size.submits());
    let round = replay_round(&inputs, &service, &mut replies, &mut turnaround, true);
    let (verdicts, bad) = check_replies(&inputs, &replies, &expected, &mut out);
    check_counters(&service, size, &round, &mut out);
    let snap = service.metrics.snapshot();
    drop(service);
    let codec = codec_layer(&inputs, &verdicts);
    out.attempted += size.submits() as u64;
    out.failed += bad;

    let e2e_ns = round.wall_s * 1e9 / submits;
    let pump_ns = round.pump_submit_ns / submits;
    let decode_ns = (codec[0] + codec[1]) / 2.0;
    let encode_ns = (codec[2] + codec[3]) / 2.0;
    let submit_ns = (sl.grow_ns + sl.reuse_ns + sl.resident_ns) / sl.calls as f64;
    let ready_share = ml.ready as f64 / submits;
    let service_self = pump_ns - decode_ns - submit_ns - encode_ns;
    let session_self = submit_ns - ml.window_ns - ready_share * (ml.detect_ns + ml.vote_ns);
    let stage2_runs = snap.stage2_invoked.total() as f64;
    let routed = stage2_runs + snap.stage2_skipped.total() as f64;

    let mut ledger = Ledger::new(
        format!(
            "fleet_churn ledger — {} hosts, {} submits, peak {} resident (ns per submit)",
            size.hosts(),
            size.submits(),
            round.peak_resident
        ),
        "ns",
        e2e_ns,
    );
    ledger.row(0, "service.pump (submit steps)", pump_ns, 1.0, service_self);
    ledger.row(
        1,
        "codec.decode (v1/v2 half each)",
        decode_ns,
        1.0,
        decode_ns,
    );
    ledger.row(1, "session.submit_batch", submit_ns, 1.0, session_self);
    ledger.row(2, "online.window", ml.window_ns, 1.0, ml.window_ns);
    ledger.row(
        2,
        "cascade.detect",
        ml.detect_ns,
        ready_share,
        ready_share * ml.detect_ns,
    );
    ledger.row(
        3,
        "cascade.stage1",
        ml.stage1_ns,
        ready_share,
        ready_share * ml.stage1_ns,
    );
    ledger.row(
        3,
        "cascade.stage2",
        ml.detect_ns - ml.stage1_ns,
        ready_share,
        ready_share * (ml.detect_ns - ml.stage1_ns),
    );
    ledger.row(
        2,
        "online.vote",
        ml.vote_ns,
        ready_share,
        ready_share * ml.vote_ns,
    );
    ledger.row(
        1,
        "codec.encode (v1/v2 half each)",
        encode_ns,
        1.0,
        encode_ns,
    );
    ledger.row(
        0,
        "service.pump (hello + hang-up steps)",
        round.pump_other_ns / (2.0 * size.hosts() as f64),
        2.0 * size.hosts() as f64 / submits,
        round.pump_other_ns / submits,
    );
    ledger.row(
        0,
        "session.evict (idle sweeps)",
        round.sweep_ns / round.evicted.max(1) as f64,
        round.evicted as f64 / submits,
        round.sweep_ns / submits,
    );
    println!("{}", ledger.render());
    println!(
        "  session.submit_batch by admission kind: grow {:.1} us x {}, reuse {:.0} ns x {}, resident {:.0} ns x {}",
        sl.grow_ns / 1e3 / sl.grows.max(1) as f64,
        sl.grows,
        sl.reuse_ns / sl.reuses.max(1) as f64,
        sl.reuses,
        sl.resident_ns / sl.residents.max(1) as f64,
        sl.residents
    );
    println!(
        "  session memory: {:.1} KiB RSS per resident session vs engine estimate {:.1} KiB\n",
        sl.rss_kib_per_session, sl.gauge_kib
    );

    out.metric("codec.v1_decode_ns", codec[0], "ns");
    out.metric("codec.v2_decode_ns", codec[1], "ns");
    out.metric("codec.v1_encode_ns", codec[2], "ns");
    out.metric("codec.v2_encode_ns", codec[3], "ns");
    out.metric(
        "session.admit_grow_us",
        sl.grow_ns / 1e3 / sl.grows.max(1) as f64,
        "us",
    );
    out.metric(
        "session.admit_reuse_ns",
        sl.reuse_ns / sl.reuses.max(1) as f64,
        "ns",
    );
    out.metric(
        "session.submit_ns",
        sl.resident_ns / sl.residents.max(1) as f64,
        "ns",
    );
    out.metric(
        "session.evict_ns",
        sl.evict_ns / sl.evictions.max(1) as f64,
        "ns",
    );
    out.metric("session.rss_kib", sl.rss_kib_per_session, "KiB");
    out.metric("session.gauge_kib", sl.gauge_kib, "KiB");
    out.metric("online.window_ns", ml.window_ns, "ns");
    out.metric("online.vote_ns", ml.vote_ns, "ns");
    out.metric("cascade.detect_ns", ml.detect_ns, "ns");
    out.metric("cascade.stage1_ns", ml.stage1_ns, "ns");
    out.metric("cascade.stage2_ns", ml.detect_ns - ml.stage1_ns, "ns");
    out.metric("cascade.ready_share", ready_share, "count");
    out.metric(
        "cascade.stage2_share",
        stage2_runs / routed.max(1.0),
        "count",
    );
    out.metric("service.pump_ns", pump_ns, "ns");
    out.metric("service.self_ns", service_self, "ns");
    out.metric("service.batch_size", submits / sl.calls as f64, "count");
    out.metric("loop.unattributed_ns", e2e_ns - pump_ns, "ns");
    out
}
