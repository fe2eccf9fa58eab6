//! CSV trace-driven arrival replay.
//!
//! Production traces (like the 24-hour one behind the paper's Table III)
//! arrive as flat request logs: one `(timestamp, object)` record per
//! request. This module parses that shape from CSV text and folds it into a
//! [`RateSchedule`] by counting requests in fixed-width time bins — the same
//! shape the time-bin machinery consumes, so a trace can drive a simulation
//! through the ordinary `SetRates` path.
//!
//! The format is deliberately minimal: two comma-separated columns
//! `time_s,file`, optional spaces, `#` comment lines, and an optional header
//! row (any first line whose fields do not parse as numbers). Every parse
//! failure is a typed [`TraceError`] carrying the 1-based line number — a
//! malformed trace must never panic the loader.

use crate::timebins::{RateSchedule, TimeBin};
use std::fmt;

/// One request record of a trace: a file (object) requested at a time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Arrival time in seconds from the start of the trace.
    pub at: f64,
    /// Index of the requested file.
    pub file: usize,
}

/// A typed error from trace parsing or binning.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceError {
    /// A line failed to parse; carries the 1-based line number.
    Parse {
        /// 1-based line number of the offending record.
        line: usize,
        /// What was wrong with it.
        message: String,
    },
    /// The trace parsed but cannot be binned as requested.
    Invalid(String),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Parse { line, message } => {
                write!(f, "trace parse error at line {line}: {message}")
            }
            TraceError::Invalid(message) => write!(f, "invalid trace: {message}"),
        }
    }
}

impl std::error::Error for TraceError {}

/// Parses a `time_s,file` CSV trace.
///
/// Blank lines and `#` comments are skipped; a single header row is allowed
/// as the first non-blank record. Times must be finite and non-negative.
/// Records need not be time-sorted (production logs often interleave
/// front-end shards); the returned events preserve file order per timestamp
/// by sorting stably on time.
///
/// # Errors
///
/// Returns [`TraceError::Parse`] with the offending 1-based line for wrong
/// column counts, non-numeric fields past the header, or invalid times.
pub fn parse_trace_csv(text: &str) -> Result<Vec<TraceEvent>, TraceError> {
    let mut events = Vec::new();
    let mut saw_record = false;
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = trimmed.split(',').map(str::trim).collect();
        if fields.len() != 2 {
            return Err(TraceError::Parse {
                line,
                message: format!("expected 2 comma-separated fields, found {}", fields.len()),
            });
        }
        let parsed_at = fields[0].parse::<f64>();
        let parsed_file = fields[1].parse::<usize>();
        match (parsed_at, parsed_file) {
            (Ok(at), Ok(file)) => {
                if !at.is_finite() || at < 0.0 {
                    return Err(TraceError::Parse {
                        line,
                        message: format!("time {at} is not finite and non-negative"),
                    });
                }
                saw_record = true;
                events.push(TraceEvent { at, file });
            }
            _ if !saw_record => {
                // A non-numeric first record is a header row.
                saw_record = true;
            }
            _ => {
                return Err(TraceError::Parse {
                    line,
                    message: format!("non-numeric fields '{}', '{}'", fields[0], fields[1]),
                });
            }
        }
    }
    events.sort_by(|a, b| a.at.partial_cmp(&b.at).expect("times checked finite"));
    Ok(events)
}

/// Folds a trace into a [`RateSchedule`] of `bin_seconds`-long bins: the
/// rate of file `f` in bin `b` is its request count in
/// `[b·bin_seconds, (b+1)·bin_seconds)` divided by the bin length. The bins
/// cover the last event, so the schedule has at least one bin.
///
/// # Errors
///
/// Returns [`TraceError::Invalid`] if `num_files == 0` or `bin_seconds` is
/// not positive-finite, naming the span and bin length if the bin counters
/// cannot be allocated, and naming the offending event if one references a
/// file index `>= num_files`.
pub fn binned_rate_schedule(
    events: &[TraceEvent],
    num_files: usize,
    bin_seconds: f64,
) -> Result<RateSchedule, TraceError> {
    if num_files == 0 {
        return Err(TraceError::Invalid("num_files must be positive".into()));
    }
    if !bin_seconds.is_finite() || bin_seconds <= 0.0 {
        return Err(TraceError::Invalid(format!(
            "bin length {bin_seconds} must be positive and finite"
        )));
    }
    let horizon = events.iter().fold(0.0_f64, |acc, e| acc.max(e.at));
    let too_long = || {
        TraceError::Invalid(format!(
            "a trace spanning {horizon} s has too many bins of {bin_seconds} s to count"
        ))
    };
    // `as` saturates, so a span past `usize::MAX` bins fails the add.
    let bins = ((horizon / bin_seconds).floor() as usize)
        .checked_add(1)
        .ok_or_else(too_long)?;
    // One counter per (bin, file), bin-major.
    let cells = bins.checked_mul(num_files).ok_or_else(too_long)?;
    let mut counts = Vec::new();
    counts.try_reserve_exact(cells).map_err(|_| too_long())?;
    counts.resize(cells, 0u64);
    for event in events {
        if event.file >= num_files {
            return Err(TraceError::Invalid(format!(
                "event at t={} references file {} but the population has {num_files}",
                event.at, event.file
            )));
        }
        let bin = ((event.at / bin_seconds).floor() as usize).min(bins - 1);
        counts[bin * num_files + event.file] += 1;
    }
    let mut schedule = Vec::new();
    schedule.try_reserve_exact(bins).map_err(|_| too_long())?;
    schedule.extend(counts.chunks_exact(num_files).map(|row| {
        TimeBin::new(
            bin_seconds,
            row.iter().map(|&c| c as f64 / bin_seconds).collect(),
        )
    }));
    Ok(RateSchedule::new(schedule))
}

#[cfg(test)]
mod tests {
    use super::*;

    const TRACE: &str = "\
# a tiny two-file trace
time_s,file
0.5, 0
1.5,0
2.5,1
 3.5 , 0
";

    #[test]
    fn parses_comments_header_and_spaces() {
        let events = parse_trace_csv(TRACE).unwrap();
        assert_eq!(events.len(), 4);
        assert_eq!(events[0], TraceEvent { at: 0.5, file: 0 });
        assert_eq!(events[2], TraceEvent { at: 2.5, file: 1 });
    }

    #[test]
    fn unsorted_input_is_sorted_stably() {
        let events = parse_trace_csv("3.0,1\n1.0,0\n2.0,2\n").unwrap();
        let order: Vec<usize> = events.iter().map(|e| e.file).collect();
        assert_eq!(order, vec![0, 2, 1]);
    }

    #[test]
    fn malformed_lines_are_typed_errors_with_line_numbers() {
        let missing = parse_trace_csv("0.5,0\n1.5\n");
        assert!(
            matches!(missing, Err(TraceError::Parse { line: 2, .. })),
            "{missing:?}"
        );
        let nonnum = parse_trace_csv("0.5,0\nabc,def\n");
        assert!(matches!(nonnum, Err(TraceError::Parse { line: 2, .. })));
        let negative = parse_trace_csv("-1.0,0\n");
        assert!(matches!(negative, Err(TraceError::Parse { line: 1, .. })));
        let nan = parse_trace_csv("NaN,0\n");
        assert!(matches!(nan, Err(TraceError::Parse { line: 1, .. })));
    }

    #[test]
    fn binning_counts_requests_per_file() {
        let events = parse_trace_csv(TRACE).unwrap();
        let schedule = binned_rate_schedule(&events, 2, 2.0).unwrap();
        assert_eq!(schedule.len(), 2);
        assert!(schedule.bins().iter().all(|b| b.duration == 2.0));
        // File 0: bins [0,2) -> 2 requests, [2,4) -> 1 request.
        // File 1: one request in bin [2,4).
        assert_eq!(schedule.bins()[0].rates, [1.0, 0.0]);
        assert_eq!(schedule.bins()[1].rates, [0.5, 0.5]);
    }

    #[test]
    fn binning_rejects_bad_parameters_and_indices() {
        let events = parse_trace_csv(TRACE).unwrap();
        assert!(binned_rate_schedule(&events, 0, 2.0).is_err());
        assert!(binned_rate_schedule(&events, 2, 0.0).is_err());
        assert!(binned_rate_schedule(&events, 2, f64::NAN).is_err());
        assert!(matches!(
            binned_rate_schedule(&events, 1, 2.0),
            Err(TraceError::Invalid(_))
        ));
    }

    #[test]
    fn schedule_events_start_at_the_second_bin() {
        // A trace inside the first bin is one bin, so a replay has no
        // `SetRates` event: bin 0's rates are the run's initial rates.
        let events = parse_trace_csv("0.5,0\n1.5,1\n").unwrap();
        let schedule = binned_rate_schedule(&events, 2, 2.0).unwrap();
        assert_eq!(schedule.len(), 1);
        assert_eq!(schedule.bins()[0].rates, [0.5, 0.5]);
    }

    #[test]
    fn every_request_is_counted_in_the_bin_that_holds_its_time() {
        // At 0.7 s bins, b·0.7 and a running sum of b 0.7s disagree in the
        // last bit (6·0.7 = 4.199999999999999, the sum is 4.2), so a rate
        // read at b·0.7 must come from bin b itself, not from the bin whose
        // accumulated edges hold that time: the request at 4.5 s is bin 6's
        // and the one at 9.0 s is bin 12's.
        let events = parse_trace_csv("4.5,0\n9.0,1\n").unwrap();
        let schedule = binned_rate_schedule(&events, 2, 0.7).unwrap();
        assert_eq!(schedule.len(), 13);
        for (b, bin) in schedule.bins().iter().enumerate() {
            let expected = match b {
                6 => [1.0 / 0.7, 0.0],
                12 => [0.0, 1.0 / 0.7],
                _ => [0.0, 0.0],
            };
            assert_eq!(bin.rates, expected, "bin {b}");
        }
    }

    #[test]
    fn files_with_no_requests_get_zero_profiles() {
        let schedule = binned_rate_schedule(&[TraceEvent { at: 1.0, file: 0 }], 3, 2.0).unwrap();
        assert_eq!(schedule.bins()[0].rates, [0.5, 0.0, 0.0]);
    }

    #[test]
    fn a_trace_too_long_to_allocate_is_an_error_not_an_abort() {
        let events = parse_trace_csv("1000000000000000,0\n").unwrap();
        let err = binned_rate_schedule(&events, 1, 1.0).unwrap_err();
        let message = err.to_string();
        assert!(matches!(err, TraceError::Invalid(_)), "{message}");
        assert!(message.contains("spanning 1000000000000000 s"), "{message}");
        assert!(message.contains("bins of 1 s"), "{message}");
    }

    #[test]
    fn a_trace_past_the_bin_counter_range_is_an_error_not_an_overflow() {
        let events = parse_trace_csv("1e300,0\n").unwrap();
        let err = binned_rate_schedule(&events, 1, 1.0).unwrap_err();
        assert!(matches!(err, TraceError::Invalid(_)), "{err}");
        assert!(err.to_string().contains("bins of 1 s"), "{err}");
    }
}
