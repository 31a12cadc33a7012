//! Telemetry exposition: rendering a [`MetricsSnapshot`] as JSON and as
//! Prometheus text format.
//!
//! Both renderers are hand-rolled: the exposition formats are small
//! enough that a serialization dependency would cost more than it saves. Every scalar
//! comes from the one table in [`crate::metrics::SCALAR_METRICS`]; only
//! the two labelled families (per-reason rejections, per-stage timings)
//! are written out here. Output is deterministic: map-backed sections
//! are emitted in sorted key order so two snapshots with equal contents
//! render byte-identically.

use crate::metrics::{Metric, MetricsSnapshot, SCALAR_METRICS};
use std::fmt::Write as _;

/// Renders a snapshot as a single JSON object.
///
/// Every [`SCALAR_METRICS`] row becomes a `"name":value` member, in
/// table order; `rejected_by_reason` follows as a nested object (sorted
/// by reason) and `stage_timings` as an array of per-stage objects, in
/// pipeline order.
///
/// ```
/// use aipow_core::{export, metrics::SCALAR_METRICS, FrameworkMetrics};
/// let json = export::snapshot_json(&FrameworkMetrics::new().snapshot());
/// assert!(json.starts_with('{') && json.ends_with('}'));
/// for (name, _) in SCALAR_METRICS {
///     assert!(json.contains(&format!("\"{name}\":0")), "{name}");
/// }
/// ```
pub fn snapshot_json(snap: &MetricsSnapshot) -> String {
    let mut out = String::with_capacity(1_024);
    out.push('{');
    for (name, read) in SCALAR_METRICS {
        let _ = write!(out, "\"{name}\":{},", render(read(snap)));
    }
    out.push_str("\"rejected_by_reason\":{");
    for (i, (reason, count)) in sorted_reasons(snap).into_iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(out, "{sep}\"{}\":{count}", escape_json(reason));
    }
    out.push_str("},\"stage_timings\":[");
    for (i, t) in snap.stage_timings.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(
            out,
            "{sep}{{\"stage\":\"{}\",\"batches\":{},\"items\":{},\"total_ns\":{},\"p50_ns\":{},\"p99_ns\":{}}}",
            escape_json(&t.stage),
            t.batches,
            t.items,
            t.total_ns,
            t.p50_ns,
            t.p99_ns
        );
    }
    out.push_str("]}");
    out
}

/// Renders a snapshot in the Prometheus text exposition format: one
/// `# TYPE` comment per family, `aipow_`-prefixed metric names (one
/// unlabelled family per [`SCALAR_METRICS`] row), `{label="value"}`
/// selectors for the per-reason and per-stage series.
///
/// ```
/// use aipow_core::{export, metrics::SCALAR_METRICS, FrameworkMetrics};
/// let text = export::snapshot_prometheus(&FrameworkMetrics::new().snapshot());
/// for (name, _) in SCALAR_METRICS {
///     assert!(text.contains(&format!("# TYPE aipow_{name} ")), "{name}");
/// }
/// assert!(text.lines().all(|l| !l.trim_end().is_empty()));
/// ```
pub fn snapshot_prometheus(snap: &MetricsSnapshot) -> String {
    let mut out = String::with_capacity(2_048);
    for (name, read) in SCALAR_METRICS {
        let metric = read(snap);
        let kind = match metric {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) | Metric::Rate(_) => "gauge",
        };
        let _ = writeln!(
            out,
            "# TYPE aipow_{name} {kind}\naipow_{name} {}",
            render(metric)
        );
    }

    let _ = writeln!(out, "# TYPE aipow_rejections counter");
    for (reason, count) in sorted_reasons(snap) {
        let _ = writeln!(out, "aipow_rejections{{reason=\"{reason}\"}} {count}");
    }

    for (name, pick) in [
        ("aipow_stage_batches", 0usize),
        ("aipow_stage_items", 1),
        ("aipow_stage_total_ns", 2),
        ("aipow_stage_p50_ns", 3),
        ("aipow_stage_p99_ns", 4),
    ] {
        let kind = if pick < 3 { "counter" } else { "gauge" };
        let _ = writeln!(out, "# TYPE {name} {kind}");
        for t in &snap.stage_timings {
            let value = [t.batches, t.items, t.total_ns, t.p50_ns, t.p99_ns][pick];
            let _ = writeln!(out, "{name}{{stage=\"{}\"}} {value}", t.stage);
        }
    }
    out
}

/// The per-reason rejection tallies in sorted label order.
fn sorted_reasons(snap: &MetricsSnapshot) -> Vec<(&String, &u64)> {
    let mut reasons: Vec<(&String, &u64)> = snap.rejected_by_reason.iter().collect();
    reasons.sort_by_key(|(reason, _)| reason.as_str());
    reasons
}

/// One scalar's value as both formats write it: integers as-is, rates
/// through [`json_f64`].
fn render(metric: Metric) -> String {
    match metric {
        Metric::Counter(v) | Metric::Gauge(v) => v.to_string(),
        Metric::Rate(v) => json_f64(v),
    }
}

/// JSON-escapes the characters that can legally appear in a metric label
/// (reason/stage names are static snake_case strings, but the renderer
/// stays safe if that ever loosens).
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders a finite f64 as a JSON number (NaN/infinity have no JSON
/// representation; rates are always finite, so clamp defensively).
fn json_f64(v: f64) -> String {
    let v = if v.is_finite() { v } else { 0.0 };
    // `{:?}` always includes a decimal point or exponent, so the output
    // round-trips as a float rather than collapsing to an int.
    format!("{v:?}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::FrameworkMetrics;

    fn populated_snapshot() -> MetricsSnapshot {
        let m = FrameworkMetrics::new();
        m.record_issued_difficulties([8u8, 8, 9]);
        m.solutions_accepted.inc();
        m.record_rejection("bad_mac");
        m.record_stage(0, 4, 4_000);
        m.accept_errors.inc();
        m.accept_backoff_ms.set(128);
        m.rate_limited.add(2);
        m.replay_len.set(3);
        m.replay_heap_bytes.set(96);
        m.snapshot()
    }

    #[test]
    fn json_is_structurally_sound() {
        let json = snapshot_json(&populated_snapshot());
        assert!(json.starts_with('{') && json.ends_with('}'));
        // Balanced braces/brackets — a cheap structural check that still
        // catches missed separators and truncation.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes, "unbalanced braces in {json}");
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"challenges_issued\":3"));
        assert!(json.contains("\"bad_mac\":1"));
        assert!(json.contains("\"rate_limited\":2"));
        assert!(json.contains("\"replay_len\":3"));
        assert!(json.contains("\"replay_heap_bytes\":96"));
        assert!(json.contains("\"stage\":\"score\""));
        assert!(!json.contains(",,"), "no empty fields");
    }

    #[test]
    fn json_floats_stay_floats() {
        let mut snap = populated_snapshot();
        snap.rejections_per_s = 2.0;
        let json = snapshot_json(&snap);
        assert!(
            json.contains("\"rejections_per_s\":2.0"),
            "whole-valued rate must render as a float: {json}"
        );
        snap.rejections_per_s = f64::NAN;
        assert!(snapshot_json(&snap).contains("\"rejections_per_s\":0.0"));
    }

    #[test]
    fn prometheus_parses_line_by_line() {
        let snap = populated_snapshot();
        let text = snapshot_prometheus(&snap);
        let mut unlabelled = 0;
        for line in text.lines() {
            assert!(!line.trim().is_empty(), "no blank lines");
            if let Some(comment) = line.strip_prefix("# TYPE ") {
                let mut parts = comment.split_whitespace();
                let name = parts.next().expect("family name");
                let kind = parts.next().expect("family kind");
                assert!(name.starts_with("aipow_"), "bad family {name}");
                assert!(matches!(kind, "counter" | "gauge"), "bad kind {kind}");
                assert_eq!(parts.next(), None);
                continue;
            }
            // Sample line: `name[{label="value"}] value`.
            let (series, value) = line.rsplit_once(' ').expect("sample has a value");
            assert!(value.parse::<f64>().is_ok(), "unparsable value in {line}");
            let name = series.split('{').next().unwrap();
            assert!(name.starts_with("aipow_"), "bad metric name {name}");
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'));
            let rest = series.strip_prefix(name).unwrap();
            if rest.is_empty() {
                unlabelled += 1;
                continue;
            }
            assert!(
                rest.starts_with('{') && rest.ends_with('}'),
                "bad labels {rest}"
            );
            let inner = &rest[1..rest.len() - 1];
            let (label, val) = inner.split_once('=').expect("label=value");
            assert!(label.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'));
            assert!(val.starts_with('"') && val.ends_with('"'));
        }
        // The table is the exposition: every row appears exactly once in
        // each format, under its own kind, and nothing unlabelled appears
        // that is not a row.
        let json = snapshot_json(&snap);
        for (name, read) in SCALAR_METRICS {
            let kind = match read(&snap) {
                Metric::Counter(_) => "counter",
                Metric::Gauge(_) | Metric::Rate(_) => "gauge",
            };
            assert_eq!(json.matches(&format!("\"{name}\":")).count(), 1, "{name}");
            let family = format!("# TYPE aipow_{name} {kind}\n");
            assert_eq!(text.matches(&family).count(), 1, "{name}");
            let sample = format!("\naipow_{name} ");
            assert_eq!(text.matches(&sample).count(), 1, "{name}");
        }
        assert_eq!(unlabelled, SCALAR_METRICS.len());
        assert!(text.contains("aipow_rejections{reason=\"bad_mac\"} 1"));
        assert!(text.contains("aipow_stage_p99_ns{stage=\"score\"}"));
        assert!(text.contains("aipow_accept_errors 1"));
        assert!(text.contains("# TYPE aipow_replay_len gauge\naipow_replay_len 3\n"));
        assert!(text.contains("# TYPE aipow_replay_heap_bytes gauge\naipow_replay_heap_bytes 96\n"));
    }

    /// One `VerifyError` of every variant: adding a variant without a
    /// label (or a label without a `REJECT_REASONS` slot) fails here
    /// instead of being silently tallied as `other`.
    #[test]
    fn every_verify_error_is_exported_under_its_own_label() {
        use crate::metrics::{reason_label, REJECT_REASONS};
        use aipow_pow::{BackendId, Difficulty, VerifyError};
        let bits = Difficulty::saturating(1);
        let errors = [
            VerifyError::UnsupportedVersion { got: 9 },
            VerifyError::UnknownBackend { got: BackendId(77) },
            VerifyError::BackendMismatch {
                challenge: BackendId::SHA256,
                solution: BackendId::MEMORY_HARD,
            },
            VerifyError::InvalidBackendParam { got: 200 },
            VerifyError::DifficultyTooHigh {
                got: bits,
                cap: bits,
            },
            VerifyError::BadMac,
            VerifyError::ClientMismatch,
            VerifyError::NotYetValid,
            VerifyError::Expired {
                expired_at_ms: 1,
                now_ms: 2,
            },
            VerifyError::Replayed,
            VerifyError::InsufficientWork {
                got_bits: 1,
                need_bits: 2,
            },
            VerifyError::MalformedNonce,
        ];
        // 12 variants + the catch-all.
        assert_eq!(errors.len() + 1, REJECT_REASONS.len());
        let m = FrameworkMetrics::new();
        for err in &errors {
            let label = reason_label(err);
            assert!(REJECT_REASONS.contains(&label), "{err:?} → {label}");
            assert_ne!(label, "other", "{err:?}");
            m.record_rejection(label);
        }
        let snap = m.snapshot();
        assert_eq!(snap.rejected_by_reason.len(), errors.len(), "{snap:?}");
        let (json, text) = (snapshot_json(&snap), snapshot_prometheus(&snap));
        for err in &errors {
            let label = reason_label(err);
            assert_eq!(snap.rejected_by_reason[label], 1, "{label}");
            assert!(json.contains(&format!("\"{label}\":1")), "{label}");
            let sample = format!("aipow_rejections{{reason=\"{label}\"}} 1\n");
            assert!(text.contains(&sample), "{label}");
        }
    }

    #[test]
    fn rendering_is_deterministic() {
        let snap = populated_snapshot();
        assert_eq!(snapshot_json(&snap), snapshot_json(&snap.clone()));
        assert_eq!(
            snapshot_prometheus(&snap),
            snapshot_prometheus(&snap.clone())
        );
    }

    #[test]
    fn escape_json_handles_specials() {
        assert_eq!(escape_json("plain_reason"), "plain_reason");
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }
}
