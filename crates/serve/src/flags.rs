//! Shared numeric-flag parsing for the CLI, the `serve` subcommand and
//! the bench `loadgen` binary.
//!
//! Every numeric flag in the tooling funnels through these helpers so
//! degenerate values — `--chunk-size 0`, a negative `--handlers`, an
//! overflowing `--count` — are rejected uniformly with a message that
//! names the flag, the accepted range, and the offending input, instead
//! of each subcommand rolling (and unevenly forgetting) its own checks.

use std::time::Duration;

/// Parses a flag value as a `usize` in `[min, max]`.
///
/// # Errors
///
/// A message naming the flag, range and offending value for anything
/// that is not an integer in range — including negative numbers, empty
/// strings, trailing garbage and values past `usize`/`max`.
pub fn parse_bounded_usize(flag: &str, raw: &str, min: usize, max: usize) -> Result<usize, String> {
    let trimmed = raw.trim();
    let value: usize = trimmed
        .parse()
        .map_err(|_| format!("{flag}: expected an integer in [{min}, {max}], got {raw:?}"))?;
    if value < min || value > max {
        return Err(format!("{flag}: {value} is out of range [{min}, {max}]"));
    }
    Ok(value)
}

/// Parses a flag value as a millisecond count in `[min_ms, max_ms]`,
/// returned as a [`Duration`].
///
/// # Errors
///
/// Same contract as [`parse_bounded_usize`].
pub fn parse_bounded_ms(
    flag: &str,
    raw: &str,
    min_ms: usize,
    max_ms: usize,
) -> Result<Duration, String> {
    Ok(Duration::from_millis(parse_bounded_usize(flag, raw, min_ms, max_ms)? as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_in_range_values_and_trims_whitespace() {
        assert_eq!(parse_bounded_usize("--chunk-size", "64", 1, 4096), Ok(64));
        assert_eq!(parse_bounded_usize("--chunk-size", " 1 ", 1, 4096), Ok(1));
        assert_eq!(
            parse_bounded_ms("--deadline-ms", "250", 1, 60_000),
            Ok(Duration::from_millis(250))
        );
    }

    #[test]
    fn rejects_zero_negative_overflow_and_garbage_with_the_flag_name() {
        for raw in ["0", "-3", "4.5", "", "abc", "99999999999999999999999999"] {
            let err = parse_bounded_usize("--chunk-size", raw, 1, 4096).unwrap_err();
            assert!(err.starts_with("--chunk-size:"), "message names the flag: {err}");
        }
        let err = parse_bounded_usize("--count", "5000", 1, 4096).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
    }
}
