//! Plain-text `sar`-style feed parser.
//!
//! Production monitoring rarely arrives as typed structs: it is text — `sar`
//! prints per-interval CPU lines, request logs print per-interval counts.
//! [`SarTextSource`] accepts a minimal merged form of that output, one line
//! per monitoring window:
//!
//! ```text
//! # resolution: 5
//! # timestamp   front%  n_front   db%  n_db
//! 12:00:05      42.0%   210       18.5%   205
//! 12:00:10      45.5%   221       21.0%   217
//! ```
//!
//! Rules:
//!
//! * lines starting with `#` are comments, except the required
//!   `# resolution: <seconds>` directive, which must precede the data;
//! * an optional leading timestamp token (anything containing `:`) is
//!   skipped;
//! * the remaining tokens are `(utilization, completions)` pairs, one per
//!   tier in tandem order — utilization either as a percentage (`42.0%`,
//!   `sar`'s convention) or as a fraction in `[0, 1]`;
//! * every data line must carry the same number of tiers.

use crate::window::{MonitorWindow, TierSample, WindowSource};
use crate::OnlineError;

/// A [`WindowSource`] over parsed `sar`-style text.
///
/// # Example
/// ```
/// use burstcap_online::sar::SarTextSource;
/// use burstcap_online::window::WindowSource;
///
/// // (One string: a literal `# resolution:` line would read as a hidden
/// // doctest line here.)
/// let text = "# resolution: 5\n\
///             12:00:05 42.0% 210 18.5% 205\n\
///             12:00:10 0.455 221 0.210 217\n";
/// let mut feed = SarTextSource::parse(text)?;
/// assert_eq!(feed.tier_count(), 2);
/// assert!((feed.resolution() - 5.0).abs() < 1e-12);
/// let w = feed.next_window()?.expect("two windows parsed");
/// assert!((w.tiers[0].utilization - 0.42).abs() < 1e-12);
/// assert_eq!(w.tiers[1].completions, 205);
/// # Ok::<(), burstcap_online::OnlineError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SarTextSource {
    resolution: f64,
    tier_count: usize,
    windows: Vec<MonitorWindow>,
    next: usize,
}

impl SarTextSource {
    /// Parse a complete feed from text.
    ///
    /// # Errors
    /// Rejects a missing or invalid `# resolution:` directive, malformed
    /// numbers, utilizations outside `[0, 1]` after normalization, odd token
    /// counts, inconsistent tier counts, and feeds without data lines.
    ///
    /// # Panics
    ///
    /// Only if a justified internal invariant is violated, never for inputs
    /// this API accepts; `burstcap-lint report` lists the sites.
    pub fn parse(text: &str) -> Result<Self, OnlineError> {
        let mut resolution: Option<f64> = None;
        let mut tier_count: Option<usize> = None;
        let mut windows = Vec::new();

        for (idx, raw) in text.lines().enumerate() {
            let line_no = idx + 1;
            let line = raw.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(comment) = line.strip_prefix('#') {
                let comment = comment.trim();
                if let Some(value) = comment
                    .strip_prefix("resolution:")
                    .or_else(|| comment.strip_prefix("resolution "))
                {
                    let value: f64 = value.trim().parse().map_err(|_| OnlineError::Parse {
                        line: line_no,
                        reason: format!("unparsable resolution `{}`", value.trim()),
                    })?;
                    if value <= 0.0 || !value.is_finite() {
                        return Err(OnlineError::Parse {
                            line: line_no,
                            reason: format!("resolution must be positive, got {value}"),
                        });
                    }
                    resolution = Some(value);
                }
                continue;
            }

            if resolution.is_none() {
                return Err(OnlineError::Parse {
                    line: line_no,
                    reason: "data before the `# resolution: <seconds>` directive".into(),
                });
            }
            let mut tokens = line.split_whitespace().peekable();
            // An optional leading timestamp: any token containing ':'.
            if tokens.peek().is_some_and(|t| t.contains(':')) {
                tokens.next();
            }
            let tokens: Vec<&str> = tokens.collect();
            if tokens.is_empty() || !tokens.len().is_multiple_of(2) {
                return Err(OnlineError::Parse {
                    line: line_no,
                    reason: format!(
                        "expected (utilization, completions) pairs, got {} tokens",
                        tokens.len()
                    ),
                });
            }
            let tiers_here = tokens.len() / 2;
            match tier_count {
                None => tier_count = Some(tiers_here),
                Some(t) if t != tiers_here => {
                    return Err(OnlineError::Parse {
                        line: line_no,
                        reason: format!("expected {t} tiers, line has {tiers_here}"),
                    });
                }
                Some(_) => {}
            }
            let mut tiers = Vec::with_capacity(tiers_here);
            for pair in tokens.chunks(2) {
                let utilization = parse_utilization(pair[0], line_no)?;
                let completions: u64 = pair[1].parse().map_err(|_| OnlineError::Parse {
                    line: line_no,
                    reason: format!("unparsable completion count `{}`", pair[1]),
                })?;
                tiers.push(TierSample {
                    utilization,
                    completions,
                });
            }
            windows.push(MonitorWindow { tiers });
        }

        let resolution = resolution.ok_or(OnlineError::Parse {
            line: 0,
            reason: "missing `# resolution: <seconds>` directive".into(),
        })?;
        let tier_count = tier_count.ok_or(OnlineError::Parse {
            line: 0,
            reason: "feed contains no data lines".into(),
        })?;
        Ok(SarTextSource {
            resolution,
            tier_count,
            windows,
            next: 0,
        })
    }

    /// Number of windows not yet handed out.
    pub fn remaining(&self) -> usize {
        self.windows.len() - self.next
    }
}

/// Parse one utilization token: `42.0%` (percent, `sar` style) or a plain
/// fraction in `[0, 1]`.
fn parse_utilization(token: &str, line_no: usize) -> Result<f64, OnlineError> {
    let (body, scale) = match token.strip_suffix('%') {
        Some(body) => (body, 0.01),
        None => (token, 1.0),
    };
    let value: f64 = body.parse().map_err(|_| OnlineError::Parse {
        line: line_no,
        reason: format!("unparsable utilization `{token}`"),
    })?;
    let u = value * scale;
    if !(0.0..=1.0).contains(&u) || u.is_nan() {
        return Err(OnlineError::Parse {
            line: line_no,
            reason: format!("utilization `{token}` outside [0, 1] after normalization"),
        });
    }
    Ok(u)
}

impl WindowSource for SarTextSource {
    fn resolution(&self) -> f64 {
        self.resolution
    }

    fn tier_count(&self) -> usize {
        self.tier_count
    }

    fn next_window(&mut self) -> Result<Option<MonitorWindow>, OnlineError> {
        if self.next >= self.windows.len() {
            return Ok(None);
        }
        let w = self.windows[self.next].clone();
        self.next += 1;
        Ok(Some(w))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_percent_and_fraction_forms() {
        let text = "# a comment\n# resolution: 2.5\n\
                    12:00:02 50% 10 0.25 5\n0.75 20 25.0% 6\n";
        let mut feed = SarTextSource::parse(text).unwrap();
        assert_eq!(feed.tier_count(), 2);
        assert_eq!(feed.remaining(), 2);
        let w0 = feed.next_window().unwrap().unwrap();
        assert!((w0.tiers[0].utilization - 0.5).abs() < 1e-12);
        assert!((w0.tiers[1].utilization - 0.25).abs() < 1e-12);
        let w1 = feed.next_window().unwrap().unwrap();
        assert!((w1.tiers[0].utilization - 0.75).abs() < 1e-12);
        assert_eq!(w1.tiers[1].completions, 6);
        assert!(feed.next_window().unwrap().is_none());
    }

    #[test]
    fn rejects_missing_resolution() {
        let err = SarTextSource::parse("0.5 10\n").unwrap_err();
        assert!(matches!(err, OnlineError::Parse { .. }));
        let err = SarTextSource::parse("# resolution: nope\n0.5 10\n").unwrap_err();
        assert!(err.to_string().contains("resolution"));
        assert!(SarTextSource::parse("# resolution: -1\n0.5 10\n").is_err());
    }

    #[test]
    fn rejects_malformed_lines() {
        let head = "# resolution: 5\n";
        for bad in [
            "0.5 10 0.6\n",           // odd token count
            "1.5 10\n",               // utilization above 1
            "150% 10\n",              // percent above 100
            "abc 10\n",               // unparsable utilization
            "0.5 ten\n",              // unparsable count
            "0.5 10\n0.5 10 0.5 9\n", // tier count changes
        ] {
            let text = format!("{head}{bad}");
            assert!(SarTextSource::parse(&text).is_err(), "accepted: {bad:?}");
        }
        assert!(SarTextSource::parse(head).is_err(), "no data lines");
    }

    #[test]
    fn timestamps_are_optional() {
        let text = "# resolution: 1\n0.5 10\n12:00:01 0.5 10\n";
        let feed = SarTextSource::parse(text).unwrap();
        assert_eq!(feed.remaining(), 2);
    }
}
