//! Recorded request traces: a first-party line format for replaying real
//! traffic through the simulator.
//!
//! The format is one request per line — a timestamp with a unit suffix,
//! optionally followed by a request-class label:
//!
//! ```text
//! # checkout burst captured 2024-03-01 (timestamps are relative)
//! 0us      browse
//! 1250us   browse
//! 2ms      checkout
//! 2500us
//! 1s       browse
//! ```
//!
//! Blank lines and `#` comments are skipped. Timestamps must be
//! nondecreasing (a trace replays in recorded order). Parse failures carry
//! a line/column [`TraceSpan`], the same error-reporting shape as the
//! scenario language, so a bad trace points at the offending character
//! instead of failing wholesale.

use std::fmt;
use std::sync::Arc;

use csnake_sim::VirtualTime;

/// Position of a parse error inside a trace file (1-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSpan {
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number.
    pub col: u32,
}

/// A trace parse error with its source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceError {
    /// Where in the trace text the error sits.
    pub span: TraceSpan,
    /// What went wrong.
    pub msg: String,
}

impl TraceError {
    fn at(line: u32, col: u32, msg: impl Into<String>) -> Self {
        TraceError {
            span: TraceSpan { line, col },
            msg: msg.into(),
        }
    }
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trace parse error at line {}, col {}: {}",
            self.span.line, self.span.col, self.msg
        )
    }
}

impl std::error::Error for TraceError {}

/// A parsed request trace: nondecreasing arrival instants, each tagged
/// with an interned request class.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RecordedTrace {
    /// Distinct request-class labels, in first-appearance order.
    classes: Vec<String>,
    /// `(arrival, class index)` per request, in recorded order; shared, so
    /// clones and replay streams do not copy the recording.
    entries: Arc<[(VirtualTime, u32)]>,
}

impl RecordedTrace {
    /// Parses the line format described in the module docs.
    pub fn parse(text: &str) -> Result<RecordedTrace, TraceError> {
        let mut classes: Vec<String> = Vec::new();
        let mut entries = Vec::new();
        let mut last = VirtualTime::ZERO;
        for (idx, raw_line) in text.lines().enumerate() {
            let line_no = idx as u32 + 1;
            let line = match raw_line.find('#') {
                Some(pos) => &raw_line[..pos],
                None => raw_line,
            };
            if line.trim().is_empty() {
                continue;
            }
            let col0 = line.len() - line.trim_start().len();
            let body = line.trim();
            let (time_tok, rest) = match body.split_once(char::is_whitespace) {
                Some((t, r)) => (t, r.trim()),
                None => (body, ""),
            };
            let at = parse_time(time_tok, line_no, col0 as u32 + 1)?;
            if at < last {
                return Err(TraceError::at(
                    line_no,
                    col0 as u32 + 1,
                    format!("timestamp {at} goes backwards (previous request at {last})"),
                ));
            }
            last = at;
            let class = if rest.is_empty() { "req" } else { rest };
            if let Some(extra) = class.find(char::is_whitespace) {
                let col = col0 + (body.len() - rest.len()) + extra;
                return Err(TraceError::at(
                    line_no,
                    col as u32 + 1,
                    format!("unexpected trailing input {:?}", rest[extra..].trim()),
                ));
            }
            let class_idx = match classes.iter().position(|c| c == class) {
                Some(i) => i as u32,
                None => {
                    classes.push(class.to_string());
                    classes.len() as u32 - 1
                }
            };
            entries.push((at, class_idx));
        }
        Ok(RecordedTrace {
            classes,
            entries: entries.into(),
        })
    }

    /// Number of recorded requests.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the trace records no requests.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The arrival instants, in recorded (nondecreasing) order.
    pub fn arrival_times(&self) -> Vec<VirtualTime> {
        self.times().collect()
    }

    /// The arrival instants as a stream that shares the recording and
    /// walks it by index, so it can outlive `self`.
    pub fn times(&self) -> impl Iterator<Item = VirtualTime> + 'static {
        let entries = Arc::clone(&self.entries);
        (0..entries.len()).map(move |i| entries[i].0)
    }

    /// Distinct request-class labels, in first-appearance order.
    pub fn classes(&self) -> &[String] {
        &self.classes
    }

    /// The class label of request `i`.
    pub fn class_of(&self, i: usize) -> &str {
        &self.classes[self.entries[i].1 as usize]
    }
}

/// Parses a `<digits><unit>` timestamp token (`us`, `ms`, or `s`).
fn parse_time(tok: &str, line: u32, col: u32) -> Result<VirtualTime, TraceError> {
    let digits_len = tok.bytes().take_while(|b| b.is_ascii_digit()).count();
    if digits_len == 0 {
        return Err(TraceError::at(
            line,
            col,
            format!("expected a timestamp like `1250us`, found {tok:?}"),
        ));
    }
    let value: u64 = tok[..digits_len].parse().map_err(|_| {
        TraceError::at(
            line,
            col,
            format!("timestamp {:?} overflows", &tok[..digits_len]),
        )
    })?;
    match &tok[digits_len..] {
        "us" => Ok(VirtualTime::from_micros(value)),
        "ms" => Ok(VirtualTime::from_millis(value)),
        "s" => Ok(VirtualTime::from_secs(value)),
        unit => Err(TraceError::at(
            line,
            col + digits_len as u32,
            format!("unknown time unit {unit:?} (expected us, ms, or s)"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_documented_example() {
        let trace = RecordedTrace::parse(
            "# captured burst\n0us      browse\n1250us   browse\n2ms      checkout\n2500us\n1s       browse\n",
        )
        .expect("valid trace");
        assert_eq!(trace.len(), 5);
        assert_eq!(trace.classes(), &["browse", "checkout", "req"]);
        assert_eq!(trace.class_of(3), "req");
        assert_eq!(
            trace.arrival_times(),
            vec![
                VirtualTime::ZERO,
                VirtualTime::from_micros(1250),
                VirtualTime::from_millis(2),
                VirtualTime::from_micros(2500),
                VirtualTime::from_secs(1),
            ]
        );
    }

    #[test]
    fn inline_comments_and_blank_lines_are_skipped() {
        let trace = RecordedTrace::parse("\n10us get # hot path\n\n20us get\n").expect("valid");
        assert_eq!(trace.len(), 2);
    }

    #[test]
    fn backwards_time_is_an_error_with_span() {
        let err = RecordedTrace::parse("5ms a\n2ms b\n").expect_err("must reject");
        assert_eq!(err.span, TraceSpan { line: 2, col: 1 });
        assert!(err.msg.contains("goes backwards"), "{}", err.msg);
    }

    #[test]
    fn bad_unit_points_at_the_unit() {
        let err = RecordedTrace::parse("12min x\n").expect_err("must reject");
        assert_eq!(err.span, TraceSpan { line: 1, col: 3 });
        assert!(err.msg.contains("unknown time unit"), "{}", err.msg);
    }

    #[test]
    fn missing_digits_is_an_error() {
        let err = RecordedTrace::parse("  fast\n").expect_err("must reject");
        assert_eq!(err.span, TraceSpan { line: 1, col: 3 });
        assert!(err.msg.contains("expected a timestamp"), "{}", err.msg);
    }

    #[test]
    fn trailing_garbage_is_an_error() {
        let err = RecordedTrace::parse("1ms get extra\n").expect_err("must reject");
        assert_eq!(err.span.line, 1);
        assert!(err.msg.contains("trailing"), "{}", err.msg);
    }

    #[test]
    fn display_formats_span() {
        let err = RecordedTrace::parse("oops\n").expect_err("must reject");
        let s = err.to_string();
        assert!(s.contains("line 1"), "{s}");
        assert!(s.contains("col 1"), "{s}");
    }
}
