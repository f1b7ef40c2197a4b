//! Online run-time detection: windowing and verdict smoothing on top of
//! the raw two-stage classifier.
//!
//! A deployed HMD does not classify one 10 ms sample at a time — counter
//! readings are noisy and program phases alternate. [`OnlineDetector`]
//! wraps a 4-HPC [`TwoSmartDetector`] with the two mechanisms a real
//! deployment needs:
//!
//! - a **sliding window** that aggregates the last `window` counter
//!   readings into the mean-rate vector the classifier was trained on, and
//! - **majority smoothing** over the last `votes` window verdicts, so a
//!   single noisy window cannot flip the alarm.
//!
//! Both are model-free per-host state ([`HostState`]), sized by the
//! per-deployment [`WindowSpec`]. A fleet server scores every host with one
//! detector and keeps a `HostState` per host; [`OnlineDetector`] is the
//! single-host API: one detector plus one `HostState`.
//!
//! Internally the window is a flat ring buffer with an incremental rolling
//! sum — each [`push`](OnlineDetector::push) is O(k) in the number of
//! programmed events instead of O(window·k) — and smoothing maintains
//! per-class vote tallies, so the steady-state path performs no heap
//! allocation at all.
//!
//! # Examples
//!
//! ```no_run
//! use hmd_hpc_sim::corpus::{CorpusBuilder, CorpusSpec};
//! use twosmart::detector::TwoSmartDetector;
//! use twosmart::online::OnlineDetector;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let corpus = CorpusBuilder::new(CorpusSpec::small()).build();
//! let detector = TwoSmartDetector::builder().hpc_budget(4).train(&corpus)?;
//! let mut online = OnlineDetector::new(detector, 8, 3)?;
//! // feed counter readings as they arrive, one per 10 ms
//! let reading = vec![1.0e6, 2.0e5, 4.0e4, 1.0e4];
//! if let Some(verdict) = online.push(&reading) {
//!     println!("smoothed verdict: {verdict:?}");
//! }
//! # Ok(())
//! # }
//! ```

use crate::detector::{DetectScratch, TwoSmartDetector, Verdict};
use hmd_hpc_sim::event::Event;
use hmd_hpc_sim::workload::AppClass;
use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

/// Errors raised when constructing or feeding an [`OnlineDetector`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OnlineError {
    /// The wrapped detector reads events beyond the 4 run-time HPCs.
    NotDeployable,
    /// `window` or `votes` was zero.
    ZeroLength(&'static str),
    /// A counter reading did not have one entry per programmed event.
    BadLength {
        /// Number of programmed events (readings must match it).
        expected: usize,
        /// Length of the rejected reading.
        got: usize,
    },
}

impl fmt::Display for OnlineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OnlineError::NotDeployable => write!(
                f,
                "detector reads beyond the 4 run-time HPCs; train with hpc_budget(4)"
            ),
            OnlineError::ZeroLength(what) => write!(f, "{what} must be at least 1"),
            OnlineError::BadLength { expected, got } => write!(
                f,
                "one reading per programmed event: expected {expected} counters, got {got}"
            ),
        }
    }
}

impl Error for OnlineError {}

/// The per-deployment half of online detection: which events a reading
/// carries, how many readings make a window and how many raw verdicts
/// make a vote. Validated once against the detector and shared by every
/// host's [`HostState`].
#[derive(Debug, Clone)]
pub struct WindowSpec {
    window: usize,
    votes: usize,
    /// 44-event feature index of each programmed event, cached so a push
    /// skips the detector's per-call deployability re-verification. Its
    /// length is the reading arity.
    event_indices: Vec<usize>,
}

impl WindowSpec {
    /// Validates `window`/`votes` and the detector's deployability.
    ///
    /// # Errors
    ///
    /// As [`OnlineDetector::new`].
    pub fn new(
        detector: &TwoSmartDetector,
        window: usize,
        votes: usize,
    ) -> Result<WindowSpec, OnlineError> {
        if window == 0 {
            return Err(OnlineError::ZeroLength("window"));
        }
        if votes == 0 {
            return Err(OnlineError::ZeroLength("votes"));
        }
        let Some(events) = detector.runtime_events() else {
            return Err(OnlineError::NotDeployable);
        };
        Ok(WindowSpec {
            window,
            votes,
            event_indices: events.iter().map(|e| e.index()).collect(),
        })
    }

    /// Counters each reading must carry: one per programmed event.
    pub fn arity(&self) -> usize {
        self.event_indices.len()
    }
}

/// One host's model-free online state: the sample window and the vote
/// history, sized by a [`WindowSpec`] and always driven with that spec.
///
/// Samples live in a flat `window × k` ring buffer with a per-event rolling
/// sum maintained incrementally (evicted reading subtracted, new reading
/// added). HPC readings are integer counts below 2⁵³, for which the
/// incremental sum is exact; as a belt-and-braces measure against drift on
/// fractional inputs the sum is also rebuilt by a plain left fold each time
/// the ring wraps, which amortizes to O(k) per push.
#[derive(Debug, Clone)]
pub struct HostState {
    /// Flat `window × k` sample ring; slot `i` is `ring[i*k..(i+1)*k]`.
    ring: Vec<f64>,
    /// Number of valid samples in the ring (`<= window`).
    filled: usize,
    /// Next slot to write (`0..window`).
    pos: usize,
    /// Rolling per-event sums over the retained samples.
    sums: Vec<f64>,
    /// Retained raw verdicts, oldest first (capacity-bounded, never grows).
    verdicts: VecDeque<Verdict>,
    /// How many retained verdicts flag malware (of any class).
    malware_votes: usize,
    /// Per-class vote tallies, indexed in [`AppClass::MALWARE`] order.
    class_votes: [usize; AppClass::MALWARE.len()],
}

impl HostState {
    /// Empty window and vote history for one host under `spec`.
    pub fn new(spec: &WindowSpec) -> HostState {
        HostState {
            ring: vec![0.0; spec.window * spec.arity()],
            filled: 0,
            pos: 0,
            sums: vec![0.0; spec.arity()],
            verdicts: VecDeque::with_capacity(spec.votes),
            malware_votes: 0,
            class_votes: [0; AppClass::MALWARE.len()],
        }
    }

    /// Heap bytes held by the window and vote buffers.
    pub fn heap_bytes(&self) -> usize {
        (self.ring.capacity() + self.sums.capacity()) * std::mem::size_of::<f64>()
            + self.verdicts.capacity() * std::mem::size_of::<Verdict>()
    }

    /// Folds one reading into the ring and, once the window is full,
    /// writes the 44-event window-mean expansion into `features44` and
    /// returns `Ok(true)` — a raw verdict is now due. Returns `Ok(false)`
    /// during warm-up. Only the programmed events' slots are written, so
    /// callers must hand in a zeroed array. Windowing is split from scoring
    /// so a serving shard can score many hosts' windows in one batched call.
    ///
    /// # Errors
    ///
    /// [`OnlineError::BadLength`] if `counters` does not have one entry per
    /// programmed event (window and vote state stay untouched).
    // hmd-analyze: hot-path
    pub fn advance_window(
        &mut self,
        spec: &WindowSpec,
        counters: &[f64],
        features44: &mut [f64; Event::COUNT],
    ) -> Result<bool, OnlineError> {
        let k = spec.arity();
        if counters.len() != k {
            return Err(OnlineError::BadLength {
                expected: k,
                got: counters.len(),
            });
        }

        // Ring update: subtract the evicted reading (if any), overwrite its
        // slot, add the new one. O(k), no allocation.
        let slot = self.pos * k;
        let old = &mut self.ring[slot..slot + k];
        if self.filled == spec.window {
            for (s, o) in self.sums.iter_mut().zip(old.iter()) {
                *s -= o;
            }
        } else {
            self.filled += 1;
        }
        old.copy_from_slice(counters);
        for (s, &v) in self.sums.iter_mut().zip(counters) {
            *s += v;
        }
        self.pos += 1;
        if self.pos == spec.window {
            self.pos = 0;
            // The ring just wrapped: physical order equals logical
            // (oldest-first) order, so a contiguous left fold rebuilds the
            // sums exactly as a from-scratch pass would, squashing any
            // incremental floating-point drift.
            self.sums.fill(0.0);
            for sample in self.ring.chunks_exact(k) {
                for (s, &v) in self.sums.iter_mut().zip(sample) {
                    *s += v;
                }
            }
        }
        if self.filled < spec.window {
            return Ok(false);
        }

        // Window mean, expanded to the 44-event layout. The expansion uses
        // the cached indices — the same mapping `detect_from_counters`
        // performs, minus its per-call deployability re-verification.
        for (&idx, &s) in spec.event_indices.iter().zip(self.sums.iter()) {
            features44[idx] = s / spec.window as f64;
        }
        Ok(true)
    }

    /// Folds one raw verdict into the vote ring and returns the smoothed
    /// majority decision.
    // hmd-analyze: hot-path
    pub fn apply_verdict(&mut self, spec: &WindowSpec, raw: Verdict) -> Verdict {
        if self.verdicts.len() == spec.votes {
            let evicted = self.verdicts.pop_front().expect("ring is non-empty");
            if let Verdict::Malware { class, .. } = evicted {
                self.malware_votes -= 1;
                self.class_votes[malware_index(class)] -= 1;
            }
        }
        self.verdicts.push_back(raw);
        if let Verdict::Malware { class, .. } = raw {
            self.malware_votes += 1;
            self.class_votes[malware_index(class)] += 1;
        }
        self.smoothed()
    }

    /// Majority decision over the retained raw verdicts: malware iff more
    /// than half flag malware; the reported class is the most frequent
    /// flagged class — ties break to the lowest [`AppClass`] — with its
    /// mean confidence. Pure tally reads plus one in-order scan for the
    /// confidence mean; no allocation.
    fn smoothed(&self) -> Verdict {
        if self.malware_votes * 2 <= self.verdicts.len() {
            return Verdict::Benign;
        }
        // Most frequent class among the malware votes; the strict `>` keeps
        // the earliest (lowest) class on equal tallies.
        let mut best = 0;
        for (i, &count) in self.class_votes.iter().enumerate().skip(1) {
            if count > self.class_votes[best] {
                best = i;
            }
        }
        let class = AppClass::MALWARE[best];
        let mut total = 0.0;
        for v in &self.verdicts {
            if let Verdict::Malware {
                class: c,
                confidence,
            } = v
            {
                if *c == class {
                    total += *confidence;
                }
            }
        }
        Verdict::Malware {
            class,
            confidence: total / self.class_votes[best] as f64,
        }
    }

    /// Clears window and vote state without releasing the buffers.
    pub fn reset(&mut self) {
        self.filled = 0;
        self.pos = 0;
        self.sums.fill(0.0);
        self.verdicts.clear();
        self.malware_votes = 0;
        self.class_votes = [0; AppClass::MALWARE.len()];
    }
}

/// Index of a malware class in [`AppClass::MALWARE`] order.
fn malware_index(class: AppClass) -> usize {
    AppClass::MALWARE
        .iter()
        .position(|c| *c == class)
        .expect("verdict classes are malware classes")
}

/// A deployable single-host online detector: a trained detector plus one
/// [`HostState`] — sliding-window aggregation and majority-vote smoothing.
#[derive(Debug, Clone)]
pub struct OnlineDetector {
    detector: TwoSmartDetector,
    spec: WindowSpec,
    host: HostState,
    /// Detection scratch reused across pushes.
    scratch: DetectScratch,
}

impl OnlineDetector {
    /// Wraps a trained 4-HPC detector.
    ///
    /// `window` is the number of 10 ms readings aggregated per raw verdict;
    /// `votes` is the number of recent raw verdicts over which the smoothed
    /// decision takes a majority.
    ///
    /// # Errors
    ///
    /// [`OnlineError::NotDeployable`] if the detector was trained with more
    /// than the 4 Common events; [`OnlineError::ZeroLength`] if `window` or
    /// `votes` is zero.
    pub fn new(
        detector: TwoSmartDetector,
        window: usize,
        votes: usize,
    ) -> Result<OnlineDetector, OnlineError> {
        let spec = WindowSpec::new(&detector, window, votes)?;
        Ok(OnlineDetector {
            host: HostState::new(&spec),
            detector,
            spec,
            scratch: DetectScratch::new(),
        })
    }

    /// The wrapped detector.
    pub fn detector(&self) -> &TwoSmartDetector {
        &self.detector
    }

    /// Counters each reading must carry: one per programmed event. This is
    /// fixed at construction, so callers can validate input arity without
    /// re-deriving the deployment's event set.
    pub fn arity(&self) -> usize {
        self.spec.arity()
    }

    /// The aggregation window length in samples.
    pub fn window(&self) -> usize {
        self.spec.window
    }

    /// Number of raw verdicts in the smoothing majority.
    pub fn votes(&self) -> usize {
        self.spec.votes
    }

    /// Number of further [`push`](Self::push) calls needed before a verdict
    /// is produced (0 once the window is full).
    pub fn warmup_remaining(&self) -> usize {
        self.spec.window - self.host.filled
    }

    /// Feeds one counter reading (in [`TwoSmartDetector::runtime_events`]
    /// order). Returns the smoothed verdict once the window has filled,
    /// `None` during warm-up.
    ///
    /// # Panics
    ///
    /// Panics if `counters` has the wrong length. Service paths handling
    /// untrusted input should call [`try_push`](Self::try_push) instead.
    // hmd-analyze: hot-path
    pub fn push(&mut self, counters: &[f64]) -> Option<Verdict> {
        self.try_push(counters)
            .expect("one reading per programmed event")
    }

    /// Non-panicking [`push`](Self::push): rejects a wrong-length reading
    /// with [`OnlineError::BadLength`] and leaves the window and vote state
    /// untouched, so a malformed submission cannot corrupt or kill a
    /// serving session.
    ///
    /// # Errors
    ///
    /// [`OnlineError::BadLength`] if `counters` does not have one entry per
    /// programmed event.
    // hmd-analyze: hot-path
    pub fn try_push(&mut self, counters: &[f64]) -> Result<Option<Verdict>, OnlineError> {
        let mut features44 = [0.0; Event::COUNT];
        if !self.advance_window(counters, &mut features44)? {
            return Ok(None);
        }
        let raw = self.detector.detect_with(&features44, &mut self.scratch);
        Ok(Some(self.apply_verdict(raw)))
    }

    /// The windowing half of [`try_push`](Self::try_push), as
    /// [`HostState::advance_window`]: `advance_window` + `detect_with` +
    /// [`apply_verdict`](Self::apply_verdict) is exactly `try_push`.
    // hmd-analyze: hot-path
    pub fn advance_window(
        &mut self,
        counters: &[f64],
        features44: &mut [f64; Event::COUNT],
    ) -> Result<bool, OnlineError> {
        self.host.advance_window(&self.spec, counters, features44)
    }

    /// The smoothing half of [`try_push`](Self::try_push): folds one raw
    /// verdict into the vote ring and returns the smoothed majority
    /// decision.
    // hmd-analyze: hot-path
    pub fn apply_verdict(&mut self, raw: Verdict) -> Verdict {
        self.host.apply_verdict(&self.spec, raw)
    }

    /// Clears window and vote state (e.g. when the monitored process
    /// changes).
    pub fn reset(&mut self) {
        self.host.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmd_hpc_sim::corpus::{CorpusBuilder, CorpusSpec};
    use hmd_ml::classifier::ClassifierKind;

    fn deployable_detector() -> TwoSmartDetector {
        let corpus = CorpusBuilder::new(CorpusSpec::tiny()).build();
        AppClass::MALWARE
            .iter()
            .fold(
                TwoSmartDetector::builder().seed(4).hpc_budget(4),
                |b, &c| b.classifier_for(c, ClassifierKind::OneR),
            )
            .train(&corpus)
            .expect("detector trains")
    }

    #[test]
    fn warmup_returns_none_until_window_fills() {
        let mut online = OnlineDetector::new(deployable_detector(), 3, 1).unwrap();
        assert_eq!(online.push(&[1.0, 1.0, 1.0, 1.0]), None);
        assert_eq!(online.push(&[1.0, 1.0, 1.0, 1.0]), None);
        assert!(online.push(&[1.0, 1.0, 1.0, 1.0]).is_some());
    }

    #[test]
    fn eight_hpc_detector_is_rejected() {
        let corpus = CorpusBuilder::new(CorpusSpec::tiny()).build();
        let det = AppClass::MALWARE
            .iter()
            .fold(
                TwoSmartDetector::builder().seed(4).hpc_budget(8),
                |b, &c| b.classifier_for(c, ClassifierKind::OneR),
            )
            .train(&corpus)
            .unwrap();
        assert_eq!(
            OnlineDetector::new(det, 3, 1).unwrap_err(),
            OnlineError::NotDeployable
        );
    }

    #[test]
    fn zero_lengths_are_rejected() {
        let det = deployable_detector();
        assert_eq!(
            OnlineDetector::new(det.clone(), 0, 1).unwrap_err(),
            OnlineError::ZeroLength("window")
        );
        assert_eq!(
            OnlineDetector::new(det, 1, 0).unwrap_err(),
            OnlineError::ZeroLength("votes")
        );
    }

    #[test]
    fn majority_smoothing_suppresses_single_outliers() {
        // votes = 3: a single malware verdict among benign ones must not
        // trigger the alarm. We simulate by feeding readings and checking
        // the smoothed stream is stable even if raw verdicts flicker.
        let det = deployable_detector();
        let mut online = OnlineDetector::new(det, 1, 3).unwrap();
        // Feed constant benign-looking low counters.
        let mut alarms = 0;
        for _ in 0..10 {
            if let Some(v) = online.push(&[1e5, 1e4, 1e3, 1e2]) {
                if v.is_malware() {
                    alarms += 1;
                }
            }
        }
        // The verdict stream is deterministic for constant input: either
        // always alarming or never; smoothing must not oscillate.
        assert!(alarms == 0 || alarms == 10, "oscillating alarms: {alarms}");
    }

    #[test]
    fn rolling_sums_match_naive_recomputation() {
        // The incremental ring sums must agree with a from-scratch fold
        // over the retained samples at every step — including across ring
        // wraps and evictions. Counter readings are integer-valued, so
        // both computations are exact and the comparison is bit-for-bit.
        let mut online = OnlineDetector::new(deployable_detector(), 4, 2).unwrap();
        let mut naive: VecDeque<Vec<f64>> = VecDeque::new();
        for i in 0..40u64 {
            let reading = vec![
                1_000_000.0 + (i % 17) as f64 * 10_000.0,
                300_000.0 + (i % 13) as f64 * 3_000.0,
                47_000.0 + (i % 11) as f64 * 500.0,
                9_900.0 + (i % 7) as f64 * 100.0,
            ];
            let _ = online.push(&reading);
            if naive.len() == 4 {
                naive.pop_front();
            }
            naive.push_back(reading);

            let mut expected = vec![0.0; 4];
            for s in &naive {
                for (e, v) in expected.iter_mut().zip(s) {
                    *e += v;
                }
            }
            let got: Vec<u64> = online.host.sums.iter().map(|v| v.to_bits()).collect();
            let want: Vec<u64> = expected.iter().map(|v| v.to_bits()).collect();
            assert_eq!(
                got, want,
                "step {i}: {:?} vs {expected:?}",
                online.host.sums
            );
        }
    }

    #[test]
    fn smoothing_tie_breaks_to_lowest_malware_class() {
        // Equal tallies for two malware classes: the reported class must be
        // the lowest AppClass, deterministically.
        let mut online = OnlineDetector::new(deployable_detector(), 1, 4).unwrap();
        for (class, confidence) in [
            (AppClass::Virus, 0.9),
            (AppClass::Backdoor, 0.6),
            (AppClass::Virus, 0.7),
            (AppClass::Backdoor, 0.8),
        ] {
            let host = &mut online.host;
            host.verdicts
                .push_back(Verdict::Malware { class, confidence });
            host.malware_votes += 1;
            host.class_votes[malware_index(class)] += 1;
        }
        // Backdoor precedes Virus in AppClass::MALWARE (ascending label
        // order), so the 2–2 tie resolves to Backdoor with the mean of the
        // Backdoor confidences.
        assert_eq!(
            online.host.smoothed(),
            Verdict::Malware {
                class: AppClass::Backdoor,
                confidence: (0.6 + 0.8) / 2.0,
            }
        );
    }

    #[test]
    fn try_push_rejects_wrong_arity_without_corrupting_state() {
        let mut online = OnlineDetector::new(deployable_detector(), 2, 1).unwrap();
        assert_eq!(online.try_push(&[1.0, 1.0, 1.0, 1.0]), Ok(None));
        // Too short and too long are both rejected, and neither consumes a
        // window slot: the next valid push still completes the 2-window.
        assert_eq!(
            online.try_push(&[1.0, 1.0]),
            Err(OnlineError::BadLength {
                expected: 4,
                got: 2
            })
        );
        assert_eq!(
            online.try_push(&[1.0; 7]),
            Err(OnlineError::BadLength {
                expected: 4,
                got: 7
            })
        );
        assert!(online.try_push(&[1.0, 1.0, 1.0, 1.0]).unwrap().is_some());
    }

    #[test]
    #[should_panic(expected = "one reading per programmed event")]
    fn push_panics_on_wrong_arity() {
        let mut online = OnlineDetector::new(deployable_detector(), 2, 1).unwrap();
        online.push(&[1.0, 2.0]);
    }

    #[test]
    fn reset_clears_state() {
        let mut online = OnlineDetector::new(deployable_detector(), 2, 2).unwrap();
        online.push(&[1.0, 1.0, 1.0, 1.0]);
        online.push(&[1.0, 1.0, 1.0, 1.0]);
        online.reset();
        assert_eq!(online.push(&[1.0, 1.0, 1.0, 1.0]), None, "warm-up restarts");
    }

    #[test]
    fn accessors_report_configuration() {
        let online = OnlineDetector::new(deployable_detector(), 5, 3).unwrap();
        assert_eq!(online.window(), 5);
        assert_eq!(online.votes(), 3);
    }
}
