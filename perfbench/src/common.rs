//! Shared helpers: statistics, `/proc` readers, the result line and the
//! ledger table.

use std::fmt::Write as _;
use std::time::Instant;

/// FNV-1a over bytes (input and reply fingerprints).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// First quartile, median and third quartile, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so these quartiles equal the ones Python reports for the same runs.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => (f64::NAN, f64::NAN, f64::NAN),
        1 => (v[0], v[0], v[0]),
        ld => {
            let m = ld + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, ld - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (q(1), q(2), q(3))
        }
    }
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of an already sorted sample.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// On-CPU nanoseconds of the calling thread so far, from
/// `/proc/thread-self/schedstat` (nanosecond resolution, unlike the
/// clock-tick CPU fields of `stat`).
pub fn thread_cpu_ns() -> u64 {
    schedstat_cpu_ns("/proc/thread-self/schedstat")
}

/// User plus system CPU of the whole process so far, threads that have
/// exited included, in µs (clock-tick resolution: 10 ms).
pub fn process_cpu_us() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let rest = stat.rfind(')').map_or("", |i| &stat[i + 2..]);
    let f: Vec<u64> = rest
        .split_whitespace()
        .map(|v| v.parse().unwrap_or(0))
        .collect();
    let ticks = f.get(11).copied().unwrap_or(0) + f.get(12).copied().unwrap_or(0);
    ticks as f64 * 1e4
}

/// The first field of a `schedstat` file: on-CPU time in ns.
fn schedstat_cpu_ns(path: &str) -> u64 {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    text.split_whitespace()
        .next()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Folds one reply's verdict into a running per-host hash, so a client can
/// check a whole verdict stream against a replay without storing it.
pub fn fold_verdict(h: u64, v: Option<twosmart::detector::Verdict>) -> u64 {
    use twosmart::detector::Verdict;
    let (code, bits) = match v {
        None => (0u64, 0u64),
        Some(Verdict::Benign) => (1, 0),
        Some(Verdict::Malware { class, confidence }) => {
            (2 + class.label() as u64, confidence.to_bits())
        }
    };
    let mut h = h;
    for word in [code, bits] {
        h ^= word;
        h = h.wrapping_mul(0x0100_0000_01b3).rotate_left(29);
    }
    h
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Reads one `Key:   value kB` line of `/proc/self/status`.
fn status_kib(key: &str) -> u64 {
    let text = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// Peak resident set of this process so far, in KiB.
pub fn vm_hwm_kib() -> u64 {
    status_kib("VmHWM:")
}

/// Current resident set of this process, in KiB.
pub fn vm_rss_kib() -> u64 {
    status_kib("VmRSS:")
}

/// Thread ids of this process.
pub fn task_ids() -> Vec<u64> {
    let mut ids: Vec<u64> = std::fs::read_dir("/proc/self/task")
        .map(|dir| {
            dir.filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    ids.sort_unstable();
    ids
}

/// Per-thread counters from `/proc/self/task/<tid>/{schedstat,io,status}`.
#[derive(Debug, Clone, Copy, Default)]
pub struct TaskCounters {
    /// On-CPU time, in ns.
    pub cpu_ns: u64,
    /// Read-class syscalls (`syscr`).
    pub syscr: u64,
    /// Write-class syscalls (`syscw`).
    pub syscw: u64,
    /// Voluntary context switches (the thread blocked or parked).
    pub voluntary: u64,
    /// Involuntary context switches (the thread was preempted).
    pub involuntary: u64,
}

impl TaskCounters {
    /// Reads one thread's counters; a thread that has exited reads as zero.
    pub fn read(tid: u64) -> TaskCounters {
        let base = format!("/proc/self/task/{tid}");
        let field = |file: &str, key: &str| -> u64 {
            std::fs::read_to_string(format!("{base}/{file}"))
                .unwrap_or_default()
                .lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(0)
        };
        TaskCounters {
            cpu_ns: schedstat_cpu_ns(&format!("{base}/schedstat")),
            syscr: field("io", "syscr:"),
            syscw: field("io", "syscw:"),
            voluntary: field("status", "voluntary_ctxt_switches:"),
            involuntary: field("status", "nonvoluntary_ctxt_switches:"),
        }
    }

    /// Sum over a set of threads.
    pub fn sum(tids: &[u64]) -> TaskCounters {
        tids.iter()
            .map(|&t| TaskCounters::read(t))
            .fold(TaskCounters::default(), |a, b| TaskCounters {
                cpu_ns: a.cpu_ns + b.cpu_ns,
                syscr: a.syscr + b.syscr,
                syscw: a.syscw + b.syscw,
                voluntary: a.voluntary + b.voluntary,
                involuntary: a.involuntary + b.involuntary,
            })
    }

    /// Counter growth since `earlier`.
    pub fn since(self, earlier: TaskCounters) -> TaskCounters {
        TaskCounters {
            cpu_ns: self.cpu_ns.saturating_sub(earlier.cpu_ns),
            syscr: self.syscr.saturating_sub(earlier.syscr),
            syscw: self.syscw.saturating_sub(earlier.syscw),
            voluntary: self.voluntary.saturating_sub(earlier.voluntary),
            involuntary: self.involuntary.saturating_sub(earlier.involuntary),
        }
    }
}

/// One named metric value with its unit, in output order.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run reports: operation counts, correctness, metrics,
/// and any check failures (printed before the result line).
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records a failed correctness check (at most a handful are kept
    /// verbatim; the count is what matters).
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            if self.problems.len() < 20 {
                self.problems.push(what());
            } else if self.problems.len() == 20 {
                self.problems.push("… further check failures elided".into());
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// Folds another outcome's counts, metrics and problems into this one.
    pub fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.metrics.extend(other.metrics);
        self.problems.extend(other.problems);
    }

    /// The one-line JSON result (the last line of standard output).
    pub fn result_line(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let value = if m.value.is_finite() { m.value } else { -1.0 };
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// A printed per-layer breakdown: rows of time per operation, operations
/// per end-to-end unit, and the resulting share, plus an explicit
/// remainder row.
pub struct Ledger {
    title: String,
    unit: &'static str,
    total: f64,
    rows: Vec<(usize, String, f64, f64, f64)>,
}

impl Ledger {
    /// `total` is the end-to-end cost of one unit (a submit, a pass) in
    /// `unit`.
    pub fn new(title: impl Into<String>, unit: &'static str, total: f64) -> Ledger {
        Ledger {
            title: title.into(),
            unit,
            total,
            rows: Vec::new(),
        }
    }

    /// A row at nesting `depth`: `per_op` cost of one operation, `ops`
    /// operations per end-to-end unit, and its self cost per unit
    /// (its cost minus its nested rows').
    pub fn row(&mut self, depth: usize, name: &str, per_op: f64, ops: f64, self_cost: f64) {
        self.rows
            .push((depth, name.to_string(), per_op, ops, self_cost));
    }

    /// Sum of the top-level rows' cost per unit.
    pub fn attributed(&self) -> f64 {
        self.rows
            .iter()
            .filter(|r| r.0 == 0)
            .map(|r| r.2 * r.3)
            .sum()
    }

    /// Renders the table with the remainder row (end-to-end minus the
    /// top-level rows) and its share.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{}\n  {:<44} {:>12} {:>10} {:>12} {:>12} {:>7}\n",
            self.title,
            "layer",
            format!("{}/op", self.unit),
            "ops/unit",
            format!("{}/unit", self.unit),
            format!("self {}", self.unit),
            "share"
        );
        let share = |v: f64| {
            if self.total > 0.0 {
                100.0 * v / self.total
            } else {
                f64::NAN
            }
        };
        let _ = writeln!(
            out,
            "  {:<44} {:>12} {:>10} {:>12.1} {:>12} {:>6.1}%",
            "end to end", "", "", self.total, "", 100.0
        );
        for (depth, name, per_op, ops, self_cost) in &self.rows {
            let label = format!("{}{}", "  ".repeat(*depth + 1), name);
            let _ = writeln!(
                out,
                "  {:<44} {:>12.1} {:>10.4} {:>12.1} {:>12.1} {:>6.1}%",
                label,
                per_op,
                ops,
                per_op * ops,
                self_cost,
                share(per_op * ops)
            );
        }
        let remainder = self.total - self.attributed();
        let _ = writeln!(
            out,
            "  {:<44} {:>12} {:>10} {:>12.1} {:>12.1} {:>6.1}%",
            "  remainder (not attributed)",
            "",
            "",
            remainder,
            remainder,
            share(remainder)
        );
        out
    }
}

/// CPU affinity of the calling thread, through the C library's
/// `sched_{get,set}affinity` (std has no interface for it). The live
/// workload pins its server threads and its client thread to different
/// CPUs, so that the scheduler cannot settle them on one CPU in some runs
/// and on two in others.
pub mod affinity {
    /// `cpu_set_t`: a 1024-bit mask.
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct CpuSet([u64; 16]);

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
        fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
    }

    /// Linux's `SCHED_IDLE` policy: the thread runs only when nothing else
    /// on its CPU is runnable, and yields at once when something is.
    const SCHED_IDLE: i32 = 5;

    /// Moves the calling thread to `SCHED_IDLE`; returns whether it took
    /// effect.
    pub fn set_idle_priority() -> bool {
        let priority: i32 = 0;
        // SAFETY: `param` points to a live `struct sched_param`, whose only
        // field is the `int` priority (0, as SCHED_IDLE requires); pid 0 is
        // the calling thread.
        unsafe { sched_setscheduler(0, SCHED_IDLE, &priority) == 0 }
    }

    /// The calling thread's current mask, or `None` if it cannot be read.
    pub fn get() -> Option<CpuSet> {
        let mut mask = CpuSet([0; 16]);
        // SAFETY: `mask` is a live, writable `cpu_set_t`-sized buffer and
        // the size passed is exactly its size; pid 0 is the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) };
        (rc == 0).then_some(mask)
    }

    /// Sets the calling thread's mask; returns whether it took effect.
    pub fn set(mask: &CpuSet) -> bool {
        // SAFETY: `mask` points to a live `cpu_set_t`-sized value and the
        // size passed is exactly its size; pid 0 is the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), mask) == 0 }
    }

    impl CpuSet {
        /// The CPUs in the mask, ascending.
        pub fn cpus(&self) -> Vec<usize> {
            (0..1024)
                .filter(|&c| self.0[c / 64] >> (c % 64) & 1 == 1)
                .collect()
        }

        /// A mask holding only `cpu`.
        pub fn only(cpu: usize) -> CpuSet {
            let mut m = CpuSet([0; 16]);
            m.0[cpu / 64] |= 1 << (cpu % 64);
            m
        }
    }
}
