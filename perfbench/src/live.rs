//! `live_v2`: an in-process `serve` on loopback (one worker, readiness
//! loop) and a single-threaded client holding two v2 connections that
//! carry a few hundred resident hosts.
//!
//! After a warm-up that admits every host, a closed-loop phase sends
//! lockstep rounds of a fixed number of submits per connection
//! (throughput), then a paced open-loop phase has each host submit one
//! reading every 10 ms — the paper's sampling period — with the hosts'
//! phases spread evenly (latency from each submit's scheduled send time,
//! and the server threads' CPU and context switches per submit from
//! `/proc/self/task`).

use crate::common::affinity::{self, CpuSet};
use crate::common::{
    fold_verdict, median, percentile_sorted, secs, task_ids, vm_hwm_kib, Ledger, Outcome,
    TaskCounters,
};
use crate::model::{self, VOTES, WINDOW};
use hmd_serve::metrics::{Metrics, MetricsSnapshot};
use hmd_serve::protocol::{
    self, encode_frame_into, Frame, FrameBuffer, WireFormat, PROTOCOL_VERSION_V2,
};
use hmd_serve::server::{serve, EventLoop, ServeConfig, ServerHandle};
use hmd_serve::service::{pump, Conn, Service, ServiceLimits};
use hmd_serve::session::{SessionConfig, SessionEngine};
use hmd_sim::transport::{duplex, SimStream};
use hmd_sim::workload::StreamGen;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use twosmart::detector::{CascadeMode, TwoSmartDetector};
use twosmart::online::OnlineDetector;

/// Connections the client holds; hosts alternate between them.
const CONNS: usize = 2;
/// The paper's sampling period: each host submits once per period in the
/// paced phase.
const PERIOD: Duration = Duration::from_millis(10);
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 31;
/// The paced phase's tail is taken per window of this many periods (1 s).
const TAIL_PERIODS: u64 = 100;

/// Shape of the live workload.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Resident hosts (split evenly over the two connections).
    pub hosts: usize,
    /// Distinct readings per host, replayed cyclically.
    pub stream_len: usize,
    /// Submits each host sends during warm-up (admits every session).
    pub warm_readings: usize,
    /// Submits kept in flight per connection in the closed-loop phase.
    pub depth: usize,
}

impl Size {
    pub const FULL: Size = Size {
        hosts: 200,
        stream_len: 64,
        warm_readings: 16,
        depth: 64,
    };
    pub const SMOKE: Size = Size {
        hosts: 8,
        stream_len: 16,
        warm_readings: 10,
        depth: 4,
    };
}

/// Seed-derived readings, `stream_len` per host.
struct Inputs {
    size: Size,
    readings: Vec<f64>,
}

fn host_id(h: usize) -> u64 {
    h as u64 + 1
}

impl Inputs {
    fn generate(seed: u64, size: Size) -> Inputs {
        let gen = StreamGen::new();
        let mut readings = Vec::with_capacity(size.hosts * size.stream_len * 4);
        for h in 0..size.hosts {
            for r in gen.stream(seed, host_id(h), size.stream_len) {
                readings.extend_from_slice(&r);
            }
        }
        Inputs { size, readings }
    }

    /// Reading sent with `seq` (1-based) by host `h`.
    fn reading(&self, h: usize, seq: u64) -> &[f64] {
        let i = (h * self.size.stream_len + ((seq - 1) as usize % self.size.stream_len)) * 4;
        &self.readings[i..i + 4]
    }
}

/// What the client has received for one host: the last sequence number
/// answered (replies must arrive in order) and a hash of the verdicts so
/// far, checked against a scalar replay after the run. Client memory stays
/// constant however many submits a phase completes.
#[derive(Clone, Copy, Default)]
struct HostLog {
    replied: u64,
    hash: u64,
}

/// One client connection: a nonblocking v2 socket, its decoder, its send
/// buffer, and the submits awaiting replies in send order.
struct Client {
    stream: TcpStream,
    inbuf: FrameBuffer,
    sendbuf: Vec<u8>,
    sent: usize,
    json: String,
    frame: Frame,
    /// `(host, seq, scheduled send time)` per submit in flight.
    pending: VecDeque<(usize, u64, Instant)>,
    /// Hosts this connection carries, and the round-robin cursor.
    hosts: Vec<usize>,
    rr: usize,
    readbuf: Vec<u8>,
    /// Reads that returned reply bytes.
    reads: u64,
}

impl Client {
    fn connect(addr: std::net::SocketAddr, hosts: Vec<usize>) -> Client {
        let mut stream = TcpStream::connect(addr).expect("connect to the local server");
        stream.set_nodelay(true).expect("nodelay");
        protocol::write_frame(
            &mut stream,
            &Frame::Hello {
                version: PROTOCOL_VERSION_V2,
            },
        )
        .expect("send Hello");
        match protocol::read_frame(&mut stream) {
            Ok(Frame::Hello { version }) if version == PROTOCOL_VERSION_V2 => {}
            other => panic!("v2 handshake failed: {other:?}"),
        }
        stream.set_nonblocking(true).expect("nonblocking");
        Client {
            stream,
            inbuf: FrameBuffer::with_format(WireFormat::V2Binary),
            sendbuf: Vec::with_capacity(64 * 1024),
            sent: 0,
            json: String::new(),
            frame: Frame::Submit {
                host_id: 0,
                seq: 0,
                counters: vec![0.0; 4],
            },
            pending: VecDeque::new(),
            hosts,
            rr: 0,
            readbuf: vec![0u8; 64 * 1024],
            reads: 0,
        }
    }

    /// Encodes host `h`'s next submit into the send buffer.
    fn queue(&mut self, inputs: &Inputs, h: usize, seq: u64, due: Instant) {
        if let Frame::Submit {
            host_id: id,
            seq: s,
            counters,
        } = &mut self.frame
        {
            *id = host_id(h);
            *s = seq;
            counters.copy_from_slice(inputs.reading(h, seq));
        }
        encode_frame_into(
            WireFormat::V2Binary,
            &self.frame,
            &mut self.json,
            &mut self.sendbuf,
        );
        self.pending.push_back((h, seq, due));
    }

    /// Writes as much of the send buffer as the socket takes.
    fn flush(&mut self) {
        while self.sent < self.sendbuf.len() {
            match self.stream.write(&self.sendbuf[self.sent..]) {
                Ok(n) => self.sent += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => panic!("client write failed: {e}"),
            }
        }
        if self.sent == self.sendbuf.len() {
            self.sendbuf.clear();
            self.sent = 0;
        }
    }

    /// Reads what has arrived and hands each decoded frame to `on_frame`
    /// with the time it was read.
    fn poll(&mut self, mut on_frame: impl FnMut(Frame, Instant)) {
        loop {
            match self.stream.read(&mut self.readbuf) {
                Ok(0) => panic!("server closed the connection"),
                Ok(n) => {
                    let now = Instant::now();
                    self.reads += 1;
                    self.inbuf.extend(&self.readbuf[..n]);
                    while let Ok(Some(frame)) = self.inbuf.next_frame() {
                        on_frame(frame, now);
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => panic!("client read failed: {e}"),
            }
        }
    }
}

/// Matches a reply against the oldest submit in flight and logs it.
/// Returns the submit's scheduled send time, or `None` (and records a
/// problem) when the reply is not the expected verdict: wrong host or
/// sequence, out of order, or a warm-up reply where a verdict is due (or
/// the reverse).
fn take_reply(
    pending: &mut VecDeque<(usize, u64, Instant)>,
    frame: Frame,
    logs: &mut [HostLog],
    out: &mut Outcome,
) -> Option<Instant> {
    let Some((h, seq, due)) = pending.pop_front() else {
        out.check(false, || format!("live: unsolicited reply {frame:?}"));
        return None;
    };
    match frame {
        Frame::Verdict {
            host_id: id,
            seq: s,
            verdict,
        } if id == host_id(h)
            && s == seq
            && seq == logs[h].replied + 1
            && verdict.is_none() == (seq < WINDOW as u64) =>
        {
            logs[h].replied = seq;
            logs[h].hash = fold_verdict(logs[h].hash, verdict);
            Some(due)
        }
        other => {
            out.check(false, || {
                format!("live: host {h} seq {seq}: reply {other:?}")
            });
            None
        }
    }
}

/// Everything one run of the two phases measured.
struct Phases {
    closed_submits: u64,
    closed_s: f64,
    paced_submits: u64,
    latencies_us: Vec<f64>,
    lags_us: Vec<f64>,
    /// 99th percentile of each whole paced window.
    window_p99_us: Vec<f64>,
    closed_counters: TaskCounters,
    paced_counters: TaskCounters,
    paced_threads: Vec<(u64, TaskCounters)>,
    /// Client reads that returned replies during the paced phase.
    paced_reads: u64,
    /// Each host's first paced seq, and one past its last.
    paced_from: Vec<u64>,
    paced_end: Vec<u64>,
    failed: u64,
}

/// Closed loop in lockstep: every connection sends `depth` submits, the
/// client waits for all the replies on all connections, then every
/// connection sends the next `depth`, until `deadline` (or until each
/// connection has sent `quota` submits); then it drains. The server
/// therefore sees the same batches in every round whatever the client's
/// speed, and the connections cannot drift into a phase where one of them
/// always keeps the server awake. Returns the replies received before the
/// deadline and the failed replies.
#[allow(clippy::too_many_arguments)]
fn closed_loop(
    clients: &mut [Client],
    inputs: &Inputs,
    next_seq: &mut [u64],
    depth: usize,
    quota: Option<u64>,
    deadline: Option<Instant>,
    logs: &mut [HostLog],
    out: &mut Outcome,
) -> (u64, u64) {
    let mut sent = 0u64;
    let mut done_in_time = 0u64;
    let mut failed = 0u64;
    let mut frames = Vec::new();
    loop {
        let now = Instant::now();
        let open = deadline.is_none_or(|d| now < d);
        for c in clients.iter_mut() {
            frames.clear();
            c.poll(|f, _| frames.push(f));
            for f in frames.drain(..) {
                match take_reply(&mut c.pending, f, logs, out) {
                    Some(_) if open => done_in_time += 1,
                    Some(_) => {}
                    None => failed += 1,
                }
            }
            c.flush();
        }
        if clients.iter().all(|c| c.pending.is_empty()) {
            if !open || quota.is_some_and(|q| sent >= q) {
                return (done_in_time, failed);
            }
            for c in clients.iter_mut() {
                for _ in 0..depth {
                    let h = c.hosts[c.rr];
                    c.rr = (c.rr + 1) % c.hosts.len();
                    let seq = next_seq[h];
                    next_seq[h] += 1;
                    c.queue(inputs, h, seq, now);
                }
                c.flush();
            }
            sent += depth as u64;
        }
    }
}

/// Paced open loop: global send `i` is due at `start + i * PERIOD /
/// hosts`, host `i % hosts`, for `windows` whole windows of
/// `TAIL_PERIODS` periods; then drains. Latencies land in the window of
/// their due time.
#[allow(clippy::too_many_arguments)]
fn paced_loop(
    clients: &mut [Client],
    inputs: &Inputs,
    next_seq: &mut [u64],
    start: Instant,
    windows: &mut [Vec<f64>],
    logs: &mut [HostLog],
    lags_us: &mut Vec<f64>,
    out: &mut Outcome,
) -> (u64, u64) {
    let hosts = inputs.size.hosts as u64;
    let interval = PERIOD / hosts as u32;
    let total = windows.len() as u64 * TAIL_PERIODS * hosts;
    let per_window = TAIL_PERIODS * hosts;
    let mut i = 0u64;
    let mut failed = 0u64;
    let mut frames = Vec::new();
    loop {
        let now = Instant::now();
        while i < total {
            let due = start + interval * i as u32;
            if due > now {
                break;
            }
            let h = (i % hosts) as usize;
            let seq = next_seq[h];
            next_seq[h] += 1;
            clients[h % CONNS].queue(inputs, h, seq, due);
            lags_us.push((now - due).as_nanos() as f64 / 1e3);
            i += 1;
        }
        let mut busy = i < total;
        for c in clients.iter_mut() {
            c.flush();
            frames.clear();
            c.poll(|f, at| frames.push((f, at)));
            for (f, at) in frames.drain(..) {
                match take_reply(&mut c.pending, f, logs, out) {
                    Some(due) => {
                        let k = ((due - start).as_nanos()
                            / (interval.as_nanos() * per_window as u128))
                            as usize;
                        windows[k.min(windows.len() - 1)].push((at - due).as_nanos() as f64 / 1e3);
                    }
                    None => failed += 1,
                }
            }
            busy |= !c.pending.is_empty() || c.sent < c.sendbuf.len();
        }
        if !busy {
            return (total, failed);
        }
    }
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        event_loop: EventLoop::Readiness,
        session: SessionConfig {
            window: WINDOW,
            votes: VOTES,
            cascade: CascadeMode::Always,
            ..SessionConfig::default()
        },
        ..ServeConfig::default()
    }
}

/// Keeps the server's threads and the client on different CPUs: while it
/// is held for the server, threads `serve` spawns inherit a mask of the
/// first allowed CPU; [`Pinning::to_client`] then moves the calling
/// (client) thread to the second. It also keeps the server's CPU from
/// going idle: a `SCHED_IDLE` thread spins there, yielding at once to any
/// server thread that wakes. On a virtual machine an idle CPU halts, and
/// waking it again took a varying 0.1–0.3 ms that followed the host's load,
/// not the server's. Dropping it stops the spinner and restores the calling
/// thread's mask. With fewer than two CPUs it does nothing.
struct Pinning {
    original: Option<CpuSet>,
    client: Option<CpuSet>,
    spinner: Option<(Arc<AtomicBool>, JoinHandle<()>)>,
}

impl Pinning {
    fn for_server() -> Pinning {
        let original = affinity::get();
        let cpus = original.map(|m| m.cpus()).unwrap_or_default();
        if cpus.len() < 2 || !affinity::set(&CpuSet::only(cpus[0])) {
            return Pinning {
                original: None,
                client: None,
                spinner: None,
            };
        }
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let spinner = std::thread::spawn(move || {
            if affinity::set_idle_priority() {
                while !flag.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            }
        });
        Pinning {
            original,
            client: Some(CpuSet::only(cpus[1])),
            spinner: Some((stop, spinner)),
        }
    }

    fn to_client(&self) {
        if let Some(mask) = &self.client {
            affinity::set(mask);
        }
    }
}

impl Drop for Pinning {
    fn drop(&mut self) {
        if let Some((stop, spinner)) = self.spinner.take() {
            stop.store(true, Ordering::Relaxed);
            let _ = spinner.join();
        }
        if let Some(mask) = &self.original {
            affinity::set(mask);
        }
    }
}

/// Median set-up: snapshot restore, service build and bind. Returns the
/// last server (kept running), the ids of its threads, the restored
/// detector and the pinning that holds until the run ends.
fn setup(json: &str) -> (f64, ServerHandle, Vec<u64>, TwoSmartDetector, Pinning) {
    let pinning = Pinning::for_server();
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for k in 0..SETUPS {
        let before = task_ids();
        let t0 = Instant::now();
        let detector = model::restore(json);
        let handle = serve(detector.clone(), serve_config()).expect("bind loopback");
        times.push(secs(t0));
        if k + 1 == SETUPS {
            let threads: Vec<u64> = task_ids()
                .into_iter()
                .filter(|t| !before.contains(t))
                .collect();
            last = Some((handle, threads, detector));
        } else {
            handle.shutdown();
        }
    }
    pinning.to_client();
    let (handle, threads, detector) = last.expect("at least one set-up");
    (median(&times), handle, threads, detector, pinning)
}

/// Runs warm-up, the closed-loop phase and the paced phase against a
/// fresh server, then checks the Drain counters and every verdict.
/// The closed loop lasts `closed_s`; the paced phase `paced_windows`
/// seconds.
fn run_phases(
    inputs: &Inputs,
    handle: &ServerHandle,
    server_threads: &[u64],
    detector: &TwoSmartDetector,
    closed_s: f64,
    paced_windows: usize,
    out: &mut Outcome,
) -> Phases {
    let size = inputs.size;
    let mut clients: Vec<Client> = (0..CONNS)
        .map(|c| Client::connect(handle.addr(), (c..size.hosts).step_by(CONNS).collect()))
        .collect();
    let mut next_seq = vec![1u64; size.hosts];
    let mut logs = vec![HostLog::default(); size.hosts];

    // Warm-up: admits every session (no admission after this point).
    let per_conn = (size.hosts / CONNS * size.warm_readings) as u64;
    let (_, mut failed) = closed_loop(
        &mut clients,
        inputs,
        &mut next_seq,
        size.depth,
        Some(per_conn),
        None,
        &mut logs,
        out,
    );

    let c0 = TaskCounters::sum(server_threads);
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(closed_s);
    let (closed, f) = closed_loop(
        &mut clients,
        inputs,
        &mut next_seq,
        size.depth,
        None,
        Some(deadline),
        &mut logs,
        out,
    );
    failed += f;
    let closed_counters = TaskCounters::sum(server_threads).since(c0);

    let per_window = TAIL_PERIODS as usize * size.hosts;
    let mut windows: Vec<Vec<f64>> = (0..paced_windows)
        .map(|_| Vec::with_capacity(per_window))
        .collect();
    let mut lags_us = Vec::with_capacity(per_window * paced_windows);
    let p0: Vec<(u64, TaskCounters)> = server_threads
        .iter()
        .map(|&t| (t, TaskCounters::read(t)))
        .collect();
    let start = Instant::now() + Duration::from_millis(1);
    let paced_from = next_seq.clone();
    let reads0: u64 = clients.iter().map(|c| c.reads).sum();
    let (paced, f) = paced_loop(
        &mut clients,
        inputs,
        &mut next_seq,
        start,
        &mut windows,
        &mut logs,
        &mut lags_us,
        out,
    );
    failed += f;
    let paced_reads = clients.iter().map(|c| c.reads).sum::<u64>() - reads0;
    let paced_threads: Vec<(u64, TaskCounters)> = p0
        .iter()
        .map(|&(t, c)| (t, TaskCounters::read(t).since(c)))
        .collect();
    let paced_counters = paced_threads
        .iter()
        .fold(TaskCounters::default(), |a, (_, b)| TaskCounters {
            cpu_ns: a.cpu_ns + b.cpu_ns,
            syscr: a.syscr + b.syscr,
            syscw: a.syscw + b.syscw,
            voluntary: a.voluntary + b.voluntary,
            involuntary: a.involuntary + b.involuntary,
        });
    let window_p99_us = windows
        .iter_mut()
        .map(|w| {
            w.sort_by(f64::total_cmp);
            percentile_sorted(w, 99.0)
        })
        .collect();
    let mut latencies_us: Vec<f64> = windows.into_iter().flatten().collect();
    latencies_us.sort_by(f64::total_cmp);

    // Drain over the first connection: the server's own counters.
    let stats = drain(&mut clients[0]);
    let sent: u64 = next_seq.iter().map(|s| s - 1).sum();
    let replied: u64 = logs.iter().map(|l| l.replied).sum();
    out.check(stats.submits == sent && replied == sent, || {
        format!(
            "live: Drain submits {} / replies {replied} != sent {sent}",
            stats.submits
        )
    });
    out.check(stats.frames_in == sent + CONNS as u64 + 1, || {
        format!(
            "live: Drain frames_in {} != sent {}",
            stats.frames_in,
            sent + CONNS as u64 + 1
        )
    });
    out.check(stats.malformed == 0 && stats.shed == 0, || {
        format!(
            "live: malformed {} shed {} (sent none)",
            stats.malformed, stats.shed
        )
    });
    out.check(
        stats.sessions == size.hosts as u64 && handle.sessions() == size.hosts,
        || {
            format!(
                "live: {} sessions resident for {} hosts",
                stats.sessions, size.hosts
            )
        },
    );
    out.check(
        stats.verdicts.warmup == (size.hosts * (WINDOW - 1)) as u64,
        || format!("live: {} warm-up replies", stats.verdicts.warmup),
    );
    failed += check_verdicts(inputs, detector, &logs, out);
    Phases {
        closed_submits: closed,
        closed_s,
        paced_submits: paced,
        latencies_us,
        window_p99_us,
        lags_us,
        closed_counters,
        paced_counters,
        paced_threads,
        paced_reads,
        paced_from,
        paced_end: next_seq,
        failed,
    }
}

/// Sends a Drain request and waits for the snapshot.
fn drain(client: &mut Client) -> MetricsSnapshot {
    encode_frame_into(
        WireFormat::V2Binary,
        &Frame::Drain { stats: None },
        &mut client.json,
        &mut client.sendbuf,
    );
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        client.flush();
        let mut stats = None;
        client.poll(|f, _| {
            if let Frame::Drain { stats: Some(s) } = f {
                stats = Some(s);
            }
        });
        if let Some(s) = stats {
            return s;
        }
        assert!(Instant::now() < deadline, "no Drain reply within 10 s");
    }
}

/// Each host's verdict stream against a scalar `OnlineDetector::push`
/// replay of its readings — a separate code path from the server's batched
/// cascade. Returns the number of hosts whose streams differ.
fn check_verdicts(
    inputs: &Inputs,
    detector: &TwoSmartDetector,
    logs: &[HostLog],
    out: &mut Outcome,
) -> u64 {
    let mut od = OnlineDetector::new(detector.clone(), WINDOW, VOTES).expect("deployable");
    let mut bad = 0u64;
    for (h, log) in logs.iter().enumerate() {
        od.reset();
        let want = (1..=log.replied).fold(0, |acc, seq| {
            fold_verdict(acc, od.push(inputs.reading(h, seq)))
        });
        if want != log.hash {
            bad += 1;
            out.check(false, || {
                format!(
                    "live: host {h}: {} verdicts differ from the scalar replay",
                    log.replied
                )
            });
        }
    }
    bad
}

/// Closed-loop share of a run's measuring time; the rest is whole paced
/// windows.
fn split(seconds: f64) -> (f64, usize) {
    let closed_s = (seconds * 0.4).max(0.2);
    (closed_s, ((seconds - closed_s).floor() as usize).max(1))
}

/// The untraced run: end-to-end metrics.
pub fn run(seed: u64, seconds: f64, size: Size) -> Outcome {
    let mut out = Outcome::default();
    let json = model::snapshot_json();
    let inputs = Inputs::generate(seed, size);
    let (setup_s, handle, threads, detector, _pinning) = setup(&json);
    let (closed_s, windows) = split(seconds);
    let p = run_phases(
        &inputs, &handle, &threads, &detector, closed_s, windows, &mut out,
    );
    handle.shutdown();
    out.attempted += p.paced_end.iter().map(|s| s - 1).sum::<u64>();
    out.failed += p.failed;
    // Reported, not measured against a bound: see README ("lat_p99_us").
    eprintln!(
        "live_v2: paced p99 {:.0} us; per 1 s window: {:?}",
        percentile_sorted(&p.latencies_us, 99.0),
        p.window_p99_us
            .iter()
            .map(|v| v.round())
            .collect::<Vec<_>>()
    );
    out.metric("setup_s", setup_s, "s");
    out.metric("ops_per_s", p.closed_submits as f64 / p.closed_s, "1/s");
    out.metric("lat_p50_us", percentile_sorted(&p.latencies_us, 50.0), "us");
    out.metric(
        "cpu_us_per_op",
        p.paced_counters.cpu_ns as f64 / 1e3 / p.paced_submits.max(1) as f64,
        "us",
    );
    out.metric("peak_rss_mb", vm_hwm_kib() as f64 / 1024.0, "MiB");
    out
}

/// In-memory service cost of the paced submits at the live batch sizes:
/// the same hosts, sequence numbers and readings, pumped over in-memory
/// duplex pipes into a fresh service, with each connection's submits
/// grouped into batches of the size the server saw. Every earlier submit is replayed first, untimed,
/// so each session's window and votes match the live run's.
fn service_replay(inputs: &Inputs, detector: &TwoSmartDetector, p: &Phases, batch: f64) -> f64 {
    let size = inputs.size;
    let metrics = Arc::new(Metrics::new());
    let engine = SessionEngine::new(
        detector.clone(),
        &serve_config().session,
        Arc::clone(&metrics),
    )
    .expect("deployable");
    let service = Service::new(engine, metrics, ServiceLimits::default());
    let mut chunk = vec![0u8; 16 * 1024];
    let mut sink = vec![0u8; 64 * 1024];
    let mut json = String::new();
    let mut bytes = Vec::new();
    let mut frame = Frame::Submit {
        host_id: 0,
        seq: 0,
        counters: vec![0.0; 4],
    };
    let mut pumped_ns = 0.0;
    let mut pumped = 0u64;
    for ci in 0..CONNS {
        let (mut client, server) = duplex();
        let mut conn = Conn::new(server);
        let mut exchange = |client: &mut SimStream, conn: &mut Conn<SimStream>, bytes: &[u8]| {
            let _ = client.write_all(bytes);
            let t0 = Instant::now();
            pump(conn, &service, &mut chunk, false);
            let ns = t0.elapsed().as_nanos() as f64;
            while client.read(&mut sink).is_ok_and(|n| n > 0) {}
            ns
        };
        exchange(
            &mut client,
            &mut conn,
            &protocol::encode(&Frame::Hello {
                version: PROTOCOL_VERSION_V2,
            }),
        );
        let hosts: Vec<usize> = (ci..size.hosts).step_by(CONNS).collect();
        let mut encode = |h: usize, seq: u64, bytes: &mut Vec<u8>| {
            if let Frame::Submit {
                host_id: id,
                seq: s,
                counters,
            } = &mut frame
            {
                *id = host_id(h);
                *s = seq;
                counters.copy_from_slice(inputs.reading(h, seq));
            }
            encode_frame_into(WireFormat::V2Binary, &frame, &mut json, bytes);
        };
        let max_pre = hosts.iter().map(|&h| p.paced_from[h]).max().unwrap_or(1);
        for seq in 1..max_pre {
            bytes.clear();
            for &h in &hosts {
                if seq < p.paced_from[h] {
                    encode(h, seq, &mut bytes);
                }
            }
            exchange(&mut client, &mut conn, &bytes);
        }
        // The paced submits in send order: host-phase order within each
        // period.
        let rounds = hosts
            .iter()
            .map(|&h| p.paced_end[h] - p.paced_from[h])
            .max()
            .unwrap_or(0);
        let order: Vec<(usize, u64)> = (0..rounds)
            .flat_map(|k| hosts.iter().map(move |&h| (h, k)))
            .filter(|&(h, k)| p.paced_from[h] + k < p.paced_end[h])
            .map(|(h, k)| (h, p.paced_from[h] + k))
            .collect();
        let mut carried = 0.0;
        let mut i = 0;
        while i < order.len() {
            carried += batch;
            let n = (carried.floor() as usize).clamp(1, order.len() - i);
            carried -= n as f64;
            bytes.clear();
            for &(h, seq) in &order[i..i + n] {
                encode(h, seq, &mut bytes);
            }
            pumped_ns += exchange(&mut client, &mut conn, &bytes);
            pumped += n as u64;
            i += n;
        }
    }
    pumped_ns / 1e3 / pumped.max(1) as f64
}

/// The traced run: the live ledger and its per-layer metrics.
pub fn trace(seed: u64, seconds: f64, size: Size, json: &str) -> Outcome {
    let mut out = Outcome::default();
    let inputs = Inputs::generate(seed, size);
    let (_, handle, threads, detector, _pinning) = setup(json);
    let (closed_s, windows) = split(seconds);
    let p = run_phases(
        &inputs, &handle, &threads, &detector, closed_s, windows, &mut out,
    );
    handle.shutdown();
    out.attempted += p.paced_end.iter().map(|s| s - 1).sum::<u64>();
    out.failed += p.failed;

    let n = p.paced_submits.max(1) as f64;
    let pc = p.paced_counters;
    let cpu_us = pc.cpu_ns as f64 / 1e3 / n;
    // A readiness pass writes all the replies to the submits it decoded in
    // one send, and the busy-polling client reads each send whole, so
    // replies per client read is the server's batch size.
    let batch = n / p.paced_reads.max(1) as f64;
    let service_us = service_replay(&inputs, &detector, &p, batch);
    let mut lags = p.lags_us.clone();
    lags.sort_by(f64::total_cmp);
    let cc = p.closed_counters;
    let closed_n = p.closed_submits.max(1) as f64;

    let mut ledger = Ledger::new(
        format!(
            "live_v2 ledger — {} hosts on {CONNS} v2 connections, paced phase {} submits (server-thread CPU, us per submit)",
            size.hosts, p.paced_submits
        ),
        "us",
        cpu_us,
    );
    // `serve` spawns its workers first and its accept thread last.
    let per_thread: Vec<f64> = p
        .paced_threads
        .iter()
        .map(|(_, c)| c.cpu_ns as f64 / 1e3 / n)
        .collect();
    let (accept_us, worker_us) = match per_thread.split_last() {
        Some((accept, workers)) if !workers.is_empty() => (*accept, workers.iter().sum()),
        _ => (0.0, cpu_us),
    };
    ledger.row(
        0,
        "server.worker (readiness loop thread)",
        worker_us,
        1.0,
        worker_us - service_us,
    );
    ledger.row(
        1,
        "service (in-memory replay at live batch sizes)",
        service_us,
        1.0,
        service_us,
    );
    ledger.row(
        0,
        "server.accept (1 ms accept poll thread)",
        accept_us,
        1.0,
        accept_us,
    );
    println!("{}", ledger.render());
    println!(
        "  worker self time = transport: syscalls, readiness pacing, wakeups (not divisible from /proc counters)\n  \
         paced:  batch {:.2} submits, syscr {:.3}, syscw {:.3} (send/recv are not counted), wakeups {:.3}, preemptions {:.4} per submit",
        batch,
        pc.syscr as f64 / n,
        pc.syscw as f64 / n,
        pc.voluntary as f64 / n,
        pc.involuntary as f64 / n
    );
    println!(
        "  closed: {:.0} submits/s, cpu {:.2} us, reads {:.3}, writes {:.3}, wakeups {:.3} per submit",
        p.closed_submits as f64 / p.closed_s,
        cc.cpu_ns as f64 / 1e3 / closed_n,
        cc.syscr as f64 / closed_n,
        cc.syscw as f64 / closed_n,
        cc.voluntary as f64 / closed_n
    );
    for (tid, c) in &p.paced_threads {
        println!(
            "  server thread {tid}: cpu {:.2} us, reads {:.3}, writes {:.3}, wakeups {:.3} per paced submit",
            c.cpu_ns as f64 / 1e3 / n,
            c.syscr as f64 / n,
            c.syscw as f64 / n,
            c.voluntary as f64 / n
        );
    }
    println!(
        "  client send lag p99 {:.1} us\n",
        percentile_sorted(&lags, 99.0)
    );

    out.metric("server.service_us_per_submit", service_us, "us");
    out.metric("server.transport_us_per_submit", cpu_us - service_us, "us");
    out.metric(
        "server.wakeups_per_submit",
        pc.voluntary as f64 / n,
        "count",
    );
    out.metric(
        "server.preemptions_per_submit",
        pc.involuntary as f64 / n,
        "count",
    );
    out.metric(
        "client.send_lag_p99_us",
        percentile_sorted(&lags, 99.0),
        "us",
    );
    out
}
