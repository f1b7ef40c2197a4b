//! Seeded fault plans: which hosts misbehave, and how.
//!
//! Fault mixes are **data, not code**: a [`FaultPlan`] is parsed from a
//! small `key=value` DSL (or a named preset), and every per-host decision
//! is a pure function of `(base seed, host id)` through the workspace's
//! `derive_seed` convention — so the same plan string and seed produce the
//! same misbehaving hosts on every run, at any worker or shard count.
//!
//! Stream faults are mutually exclusive per host (one partitioned draw);
//! dribbled I/O is drawn independently because a slow link composes with
//! any behaviour. The overload burst is global, not per-host.

use hmd_ml::par::derive_seed;

/// Salt for the per-host stream-fault draw.
const SALT_FAULT: u64 = 0x5f4u64 << 32 | 0x1f01;
/// Salt for the orthogonal dribble draw.
const SALT_DRIBBLE: u64 = 0xd21bu64 << 32 | 0x0bb1;

/// How one host's telemetry stream misbehaves (at most one per host).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamFault {
    /// Well-behaved host.
    None,
    /// Drops its connection mid-stream and reconnects with the same host
    /// id on a fresh connection (session must survive and `seq` continue).
    Reconnect,
    /// Injects one junk payload inside valid framing (recoverable
    /// `Error{malformed}` on both wire versions).
    Malformed,
    /// Sends a truncated frame and hangs up mid-payload (server must
    /// discard silently, never stall).
    Truncate,
    /// Replays an already-accepted sequence number
    /// (`Error{out_of_order}`, window state untouched).
    SeqRegress,
    /// Goes quiet past the idle threshold, then submits on the exact
    /// virtual tick its session is swept — the eviction race.
    IdleRace,
}

/// A parsed fault mix: per-host probabilities plus the global burst size.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// P(host reconnects mid-stream).
    pub reconnect: f64,
    /// P(host injects one malformed payload).
    pub malformed: f64,
    /// P(host truncates a frame and dies).
    pub truncate: f64,
    /// P(host replays a seq).
    pub seq_regress: f64,
    /// P(host races the idle sweep).
    pub idle_race: f64,
    /// P(host's link dribbles: tiny per-call I/O quotas).
    pub dribble: f64,
    /// Overload burst: this many connection attempts *beyond* the
    /// connection budget land on one tick mid-run (0 disables). The
    /// budget guarantees at least this many sheds.
    pub burst: u64,
}

impl FaultPlan {
    /// No faults at all.
    pub fn none() -> FaultPlan {
        FaultPlan {
            reconnect: 0.0,
            malformed: 0.0,
            truncate: 0.0,
            seq_regress: 0.0,
            idle_race: 0.0,
            dribble: 0.0,
            burst: 0,
        }
    }

    /// Light background chaos — the default mix.
    pub fn standard() -> FaultPlan {
        FaultPlan {
            reconnect: 0.02,
            malformed: 0.01,
            truncate: 0.01,
            seq_regress: 0.01,
            idle_race: 0.01,
            dribble: 0.05,
            burst: 32,
        }
    }

    /// Aggressive mix for stress tests: every class shows up even in
    /// small fleets.
    pub fn heavy() -> FaultPlan {
        FaultPlan {
            reconnect: 0.08,
            malformed: 0.05,
            truncate: 0.04,
            seq_regress: 0.05,
            idle_race: 0.04,
            dribble: 0.2,
            burst: 128,
        }
    }

    /// Parses a plan: a preset name (`none` | `standard` | `heavy`) or a
    /// comma list of `key=value` pairs over [`FaultPlan`]'s fields, e.g.
    /// `reconnect=0.02,malformed=0.01,burst=64`. Unlisted keys default to
    /// zero so a spec says exactly what it injects.
    ///
    /// # Errors
    ///
    /// A message naming the offending key or value.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        match spec {
            "none" => return Ok(FaultPlan::none()),
            "standard" => return Ok(FaultPlan::standard()),
            "heavy" => return Ok(FaultPlan::heavy()),
            _ => {}
        }
        let mut plan = FaultPlan::none();
        for pair in spec.split(',').filter(|p| !p.is_empty()) {
            let (key, value) = pair
                .split_once('=')
                .ok_or_else(|| format!("fault spec {pair:?} is not key=value"))?;
            let rate = || -> Result<f64, String> {
                let r: f64 = value
                    .parse()
                    .map_err(|_| format!("{key}={value:?} is not a number"))?;
                if !(0.0..=1.0).contains(&r) {
                    return Err(format!("{key}={value} outside [0, 1]"));
                }
                Ok(r)
            };
            match key {
                "reconnect" => plan.reconnect = rate()?,
                "malformed" => plan.malformed = rate()?,
                "truncate" => plan.truncate = rate()?,
                "seq_regress" => plan.seq_regress = rate()?,
                "idle_race" => plan.idle_race = rate()?,
                "dribble" => plan.dribble = rate()?,
                "burst" => {
                    plan.burst = value
                        .parse()
                        .map_err(|_| format!("burst={value:?} is not an integer"))?;
                }
                other => return Err(format!("unknown fault key {other:?}")),
            }
        }
        let total =
            plan.reconnect + plan.malformed + plan.truncate + plan.seq_regress + plan.idle_race;
        if total > 1.0 {
            return Err(format!(
                "stream-fault rates sum to {total}; they are mutually exclusive and must sum ≤ 1"
            ));
        }
        Ok(plan)
    }

    /// The (at most one) stream fault assigned to `host` under `seed`:
    /// a single uniform draw partitioned by the cumulative rates, so the
    /// classes are mutually exclusive by construction.
    pub fn fault_for(&self, seed: u64, host: u64) -> StreamFault {
        let u = unit(derive_seed(seed ^ SALT_FAULT, host));
        let mut edge = self.reconnect;
        if u < edge {
            return StreamFault::Reconnect;
        }
        edge += self.malformed;
        if u < edge {
            return StreamFault::Malformed;
        }
        edge += self.truncate;
        if u < edge {
            return StreamFault::Truncate;
        }
        edge += self.seq_regress;
        if u < edge {
            return StreamFault::SeqRegress;
        }
        edge += self.idle_race;
        if u < edge {
            return StreamFault::IdleRace;
        }
        StreamFault::None
    }

    /// Per-call I/O quota for `host`'s link, if it dribbles: 3–13 bytes,
    /// small enough to split every frame across many calls. Independent of
    /// [`fault_for`](Self::fault_for).
    pub fn dribble_for(&self, seed: u64, host: u64) -> Option<usize> {
        let r = derive_seed(seed ^ SALT_DRIBBLE, host);
        if unit(r) < self.dribble {
            Some(3 + (r % 11) as usize)
        } else {
            None
        }
    }
}

/// Maps a 64-bit draw to a uniform fraction in [0, 1) using the top 53
/// bits (exactly representable in f64, so the mapping is bit-stable).
fn unit(r: u64) -> f64 {
    (r >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_and_dsl_parse() {
        assert_eq!(FaultPlan::parse("none").unwrap(), FaultPlan::none());
        assert_eq!(FaultPlan::parse("heavy").unwrap(), FaultPlan::heavy());
        let p = FaultPlan::parse("reconnect=0.5,burst=9").unwrap();
        assert_eq!(p.reconnect, 0.5);
        assert_eq!(p.burst, 9);
        assert_eq!(p.malformed, 0.0, "unlisted keys are zero");
        assert!(FaultPlan::parse("bogus=1").is_err());
        assert!(FaultPlan::parse("reconnect=2").is_err());
        assert!(FaultPlan::parse("reconnect=0.6,truncate=0.6").is_err());
    }

    #[test]
    fn draws_are_deterministic_and_partitioned() {
        let p = FaultPlan::heavy();
        let mut counts = [0usize; 6];
        for host in 0..20_000u64 {
            assert_eq!(p.fault_for(7, host), p.fault_for(7, host));
            counts[p.fault_for(7, host) as usize] += 1;
        }
        // Every class shows up at heavy rates over 20k hosts, and the
        // draw respects the configured proportions loosely.
        assert!(counts.iter().all(|&c| c > 0), "{counts:?}");
        let faulty: usize = counts[1..].iter().sum();
        let expected = 0.26 * 20_000.0;
        assert!(
            (faulty as f64 - expected).abs() < expected * 0.2,
            "{faulty} faulty hosts vs ~{expected}"
        );
    }

    #[test]
    fn dribble_is_orthogonal_and_bounded() {
        let p = FaultPlan::heavy();
        let dribbling = (0..10_000u64)
            .filter_map(|h| p.dribble_for(3, h))
            .inspect(|&q| assert!((3..=13).contains(&q)))
            .count();
        let expected = 0.2 * 10_000.0;
        assert!((dribbling as f64 - expected).abs() < expected * 0.25);
    }
}
