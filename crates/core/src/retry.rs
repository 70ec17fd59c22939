//! The retry schedule for the §5.2 safety-check loop.
//!
//! The paper says only that Ksplice "tries again after a short delay"
//! and, "if multiple such attempts are unsuccessful, abandons the
//! upgrade attempt". This module makes that schedule an explicit
//! policy: how many attempts, and how many kernel steps run between
//! them.

use std::fmt;

/// The schedule the apply/undo retry loops follow (see the module docs).
///
/// [`RetryPolicy::default`] is five attempts with a 2 000-step delay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Safety-check attempts before abandoning (paper §5.2: "If multiple
    /// such attempts are unsuccessful, then Ksplice abandons the upgrade
    /// attempt and reports the failure").
    pub max_attempts: u32,
    /// Kernel instructions to run after each failed attempt.
    pub delay_steps: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy::fixed(5, 2_000)
    }
}

impl RetryPolicy {
    /// `max_attempts` tries, `delay_steps` between each.
    pub fn fixed(max_attempts: u32, delay_steps: u64) -> RetryPolicy {
        RetryPolicy {
            max_attempts,
            delay_steps,
        }
    }

    /// Parses the CLI spelling of a policy, `fixed:ATTEMPTS:DELAY` (the
    /// form [`fmt::Display`] prints).
    pub fn parse(spec: &str) -> Result<RetryPolicy, String> {
        let mut parts = spec.split(':');
        let (Some("fixed"), Some(attempts), Some(delay), None) =
            (parts.next(), parts.next(), parts.next(), parts.next())
        else {
            return Err(format!("`{spec}`: expected fixed:ATTEMPTS:DELAY"));
        };
        let attempts = attempts
            .parse()
            .map_err(|_| format!("bad attempts `{attempts}` in `{spec}`"))?;
        let delay = delay
            .parse()
            .map_err(|_| format!("bad delay `{delay}` in `{spec}`"))?;
        Ok(RetryPolicy::fixed(attempts, delay))
    }
}

impl fmt::Display for RetryPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fixed:{}:{}", self.max_attempts, self.delay_steps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_historical_schedule() {
        assert_eq!(RetryPolicy::default(), RetryPolicy::fixed(5, 2_000));
    }

    #[test]
    fn parse_roundtrips_the_display_form() {
        for spec in ["fixed:5:2000", "fixed:1:0", "fixed:25:3000"] {
            let p = RetryPolicy::parse(spec).unwrap();
            assert_eq!(p.to_string(), spec);
        }
        for bad in [
            "",
            "linear:3:100",
            "fixed:3",
            "fixed:3:100:",
            "fixed:3:100:é",
            "fixed:3:100:c4000",
            "fixed:x:100",
            "fixed:3:-1",
            "fixed:4294967296:100",
            "exp:3:1:2",
        ] {
            assert!(RetryPolicy::parse(bad).is_err(), "{bad:?} parsed");
        }
    }
}
