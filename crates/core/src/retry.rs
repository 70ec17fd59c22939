//! The retry schedule for the §5.2 safety-check loop.
//!
//! The paper says only that Ksplice "tries again after a short delay"
//! and, "if multiple such attempts are unsuccessful, abandons the
//! upgrade attempt". This module makes that schedule an explicit,
//! testable policy: how many attempts, how the delay between them grows
//! ([`Backoff`]), optional deterministic jitter so retries do not beat
//! in lockstep with a periodic workload, and a cooldown the abandon
//! path runs after rolling back — giving blocked threads time to drain
//! before the failure is reported.
//!
//! Everything is deterministic: jitter for attempt *n* is a pure
//! function of `(jitter_seed, n)`, so a chaos schedule that abandoned
//! replays byte-for-byte from its seed.

use std::fmt;

use ksplice_lang::FuzzRng;

/// How the delay between safety-check attempts grows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backoff {
    /// The same delay after every failed attempt.
    Fixed,
    /// The delay doubles after each failed attempt, capped at
    /// [`RetryPolicy::max_delay_steps`].
    Exponential,
}

/// The schedule the apply/undo retry loops follow (see the module docs).
///
/// [`RetryPolicy::default`] reproduces the historical behaviour: five
/// attempts, a fixed 2 000-step delay, no jitter, no cooldown.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Safety-check attempts before abandoning (paper §5.2: "If multiple
    /// such attempts are unsuccessful, then Ksplice abandons the upgrade
    /// attempt and reports the failure").
    pub max_attempts: u32,
    /// Kernel instructions to run after the first failed attempt.
    pub initial_delay_steps: u64,
    /// How the delay grows on subsequent attempts.
    pub backoff: Backoff,
    /// Upper bound on any single delay (the exponential curve flattens
    /// here; fixed schedules are clamped too).
    pub max_delay_steps: u64,
    /// Jitter amplitude as a percentage of the base delay (0 disables).
    /// Each delay is perturbed by a deterministic offset in
    /// `±jitter_pct%`, never below 1 step.
    pub jitter_pct: u32,
    /// Seed for the deterministic per-attempt jitter.
    pub jitter_seed: u64,
    /// Kernel instructions the abandon path runs *after* rolling back,
    /// before the failure is reported (0 disables).
    pub cooldown_steps: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy::fixed(5, 2_000)
    }
}

impl RetryPolicy {
    /// A fixed schedule: `max_attempts` tries, `delay_steps` between each.
    pub fn fixed(max_attempts: u32, delay_steps: u64) -> RetryPolicy {
        RetryPolicy {
            max_attempts,
            initial_delay_steps: delay_steps,
            backoff: Backoff::Fixed,
            max_delay_steps: delay_steps,
            jitter_pct: 0,
            jitter_seed: 0x9e37_79b9_7f4a_7c15,
            cooldown_steps: 0,
        }
    }

    /// An exponential schedule: delays `initial, 2·initial, 4·initial, …`
    /// capped at `max_delay_steps`.
    pub fn exponential(max_attempts: u32, initial_delay_steps: u64, max_delay_steps: u64) -> RetryPolicy {
        RetryPolicy {
            max_attempts,
            initial_delay_steps,
            backoff: Backoff::Exponential,
            max_delay_steps,
            jitter_pct: 0,
            jitter_seed: 0x9e37_79b9_7f4a_7c15,
            cooldown_steps: 0,
        }
    }

    /// Adds deterministic `±pct%` jitter derived from `seed`.
    pub fn with_jitter(mut self, pct: u32, seed: u64) -> RetryPolicy {
        self.jitter_pct = pct.min(100);
        self.jitter_seed = seed;
        self
    }

    /// Adds a post-rollback cooldown to the abandon path.
    pub fn with_cooldown(mut self, steps: u64) -> RetryPolicy {
        self.cooldown_steps = steps;
        self
    }

    /// The delay, in kernel steps, to wait after failed attempt
    /// `attempt` (1-based). Pure: the same `(policy, attempt)` always
    /// yields the same delay, jitter included.
    pub fn delay_steps(&self, attempt: u32) -> u64 {
        let base = match self.backoff {
            Backoff::Fixed => self.initial_delay_steps,
            Backoff::Exponential => {
                let shift = attempt.saturating_sub(1).min(63);
                if shift >= 64 - self.initial_delay_steps.leading_zeros() && self.initial_delay_steps != 0 {
                    u64::MAX
                } else {
                    self.initial_delay_steps << shift
                }
            }
        }
        .min(self.max_delay_steps);
        if self.jitter_pct == 0 || base == 0 {
            return base;
        }
        let span = base / 100 * self.jitter_pct as u64
            + base % 100 * self.jitter_pct as u64 / 100;
        if span == 0 {
            return base;
        }
        // One xorshift64* draw from (seed ⊕ attempt·φ) — deterministic per
        // attempt.
        let r = FuzzRng::from_state(
            (self.jitter_seed ^ (attempt as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)).max(1),
        )
        .next_u64();
        let offset = (r % (2 * span + 1)) as i64 - span as i64;
        (base as i64 + offset).max(1) as u64
    }

    /// Parses the CLI spelling of a policy:
    ///
    /// * `fixed:ATTEMPTS:DELAY`
    /// * `exp:ATTEMPTS:INITIAL:MAX`
    ///
    /// with optional trailing modifiers `:jPCT` (jitter percentage,
    /// default seed) and `:cSTEPS` (cooldown), e.g.
    /// `exp:6:500:16000:j15:c4000`.
    pub fn parse(spec: &str) -> Result<RetryPolicy, String> {
        let parts: Vec<&str> = spec.split(':').collect();
        let num = |s: &str, what: &str| -> Result<u64, String> {
            s.parse::<u64>()
                .map_err(|_| format!("bad {what} `{s}` in `{spec}`"))
        };
        let mut rest;
        let mut policy = match parts.first() {
            Some(&"fixed") => {
                if parts.len() < 3 {
                    return Err(format!("`{spec}`: expected fixed:ATTEMPTS:DELAY"));
                }
                rest = &parts[3..];
                RetryPolicy::fixed(num(parts[1], "attempts")? as u32, num(parts[2], "delay")?)
            }
            Some(&"exp") => {
                if parts.len() < 4 {
                    return Err(format!("`{spec}`: expected exp:ATTEMPTS:INITIAL:MAX"));
                }
                rest = &parts[4..];
                RetryPolicy::exponential(
                    num(parts[1], "attempts")? as u32,
                    num(parts[2], "initial delay")?,
                    num(parts[3], "max delay")?,
                )
            }
            _ => {
                return Err(format!(
                    "`{spec}`: expected `fixed:...` or `exp:...` (see --help)"
                ))
            }
        };
        while let Some(m) = rest.first() {
            rest = &rest[1..];
            policy = match m.split_at(1) {
                ("j", pct) => {
                    let seed = policy.jitter_seed;
                    policy.with_jitter(num(pct, "jitter pct")? as u32, seed)
                }
                ("c", steps) => policy.with_cooldown(num(steps, "cooldown")?),
                _ => return Err(format!("unknown modifier `{m}` in `{spec}`")),
            };
        }
        Ok(policy)
    }
}

impl fmt::Display for RetryPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.backoff {
            Backoff::Fixed => write!(f, "fixed:{}:{}", self.max_attempts, self.initial_delay_steps)?,
            Backoff::Exponential => write!(
                f,
                "exp:{}:{}:{}",
                self.max_attempts, self.initial_delay_steps, self.max_delay_steps
            )?,
        }
        if self.jitter_pct > 0 {
            write!(f, ":j{}", self.jitter_pct)?;
        }
        if self.cooldown_steps > 0 {
            write!(f, ":c{}", self.cooldown_steps)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_historical_schedule() {
        let p = RetryPolicy::default();
        assert_eq!(p.max_attempts, 5);
        for attempt in 1..=5 {
            assert_eq!(p.delay_steps(attempt), 2_000);
        }
    }

    #[test]
    fn exponential_doubles_and_caps() {
        let p = RetryPolicy::exponential(8, 500, 3_000);
        let delays: Vec<u64> = (1..=6).map(|a| p.delay_steps(a)).collect();
        assert_eq!(delays, vec![500, 1_000, 2_000, 3_000, 3_000, 3_000]);
        // Huge attempt numbers must not overflow.
        assert_eq!(p.delay_steps(200), 3_000);
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let p = RetryPolicy::fixed(10, 1_000).with_jitter(10, 42);
        for attempt in 1..=10 {
            let d = p.delay_steps(attempt);
            assert_eq!(d, p.delay_steps(attempt), "same input, same delay");
            assert!((900..=1_100).contains(&d), "attempt {attempt}: {d}");
        }
        // Different seeds yield different schedules.
        let q = RetryPolicy::fixed(10, 1_000).with_jitter(10, 43);
        let ps: Vec<u64> = (1..=10).map(|a| p.delay_steps(a)).collect();
        let qs: Vec<u64> = (1..=10).map(|a| q.delay_steps(a)).collect();
        assert_ne!(ps, qs);
    }

    #[test]
    fn parse_roundtrips_the_display_form() {
        for spec in [
            "fixed:5:2000",
            "exp:6:500:16000",
            "exp:6:500:16000:j15",
            "fixed:3:100:c4000",
            "exp:4:250:8000:j20:c1000",
        ] {
            let p = RetryPolicy::parse(spec).unwrap();
            assert_eq!(p.to_string(), spec);
        }
        assert!(RetryPolicy::parse("linear:3:100").is_err());
        assert!(RetryPolicy::parse("fixed:3").is_err());
        assert!(RetryPolicy::parse("exp:3:100:200:x9").is_err());
    }
}
