//! Typed alert documents emitted by the streaming detectors.
//!
//! Every detection produced by the live engine is an [`Alert`]: a typed,
//! self-contained document carrying the verdict (kind + severity), the
//! window that produced it, a human-readable message, detector-specific
//! structured fields, and the evidence rows (raw event documents) that
//! triggered it. Alerts serialize as `kind: "alert"` documents so they can
//! share the per-session telemetry index with health and phase documents —
//! the dashboard readers skip any document without a `metric` field.

use serde_json::{json, Value};

/// How urgent an alert is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational: worth surfacing, no action required.
    Info,
    /// Degradation or suspicious pattern; the workload still makes progress.
    Warning,
    /// Correctness problem (e.g. silent data loss) observed in the trace.
    Critical,
}

impl Severity {
    /// Stable lowercase name used in serialized documents.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Critical => "critical",
        }
    }
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What pattern a detector matched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertKind {
    /// Stale-offset read across an inode-reuse generation returning 0
    /// bytes: the Fig. 2a data-loss signature.
    DataLoss,
    /// A new file generation was first accessed at a non-zero offset —
    /// stale reader state survived the generation change.
    StaleOffsetResume,
    /// Client syscall throughput dipped while many background threads did
    /// I/O in the same window (the Fig. 4 signature).
    ContentionSkew,
    /// Per-key syscall rate jumped or collapsed versus its trailing
    /// baseline.
    SyscallRateAnomaly,
    /// Per-key error fraction crossed the configured threshold.
    ErrorRateAnomaly,
    /// A user-defined diagnosis rule matched (no more specific kind was
    /// named in its `alert(...)` action).
    RuleMatch,
}

impl AlertKind {
    /// Stable snake_case name used in serialized documents.
    pub fn as_str(self) -> &'static str {
        match self {
            AlertKind::DataLoss => "data_loss",
            AlertKind::StaleOffsetResume => "stale_offset_resume",
            AlertKind::ContentionSkew => "contention_skew",
            AlertKind::SyscallRateAnomaly => "syscall_rate_anomaly",
            AlertKind::ErrorRateAnomaly => "error_rate_anomaly",
            AlertKind::RuleMatch => "rule_match",
        }
    }

    /// Parses the stable snake_case name back into a kind.
    ///
    /// This is the inverse of [`AlertKind::as_str`]; rule files use it to
    /// map `alert(critical, data_loss, ...)` kind idents onto the typed
    /// kinds.
    pub fn parse(name: &str) -> Option<AlertKind> {
        Some(match name {
            "data_loss" => AlertKind::DataLoss,
            "stale_offset_resume" => AlertKind::StaleOffsetResume,
            "contention_skew" => AlertKind::ContentionSkew,
            "syscall_rate_anomaly" => AlertKind::SyscallRateAnomaly,
            "error_rate_anomaly" => AlertKind::ErrorRateAnomaly,
            "rule_match" => AlertKind::RuleMatch,
            _ => return None,
        })
    }
}

impl std::fmt::Display for AlertKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One detection emitted by the live engine.
#[derive(Debug, Clone, PartialEq)]
pub struct Alert {
    /// Monotonic sequence number within the engine that raised it.
    pub seq: u64,
    /// Name of the detector that fired (`rules` for a compiled rule set,
    /// whose `fields.rule` names the rule).
    pub detector: &'static str,
    /// The matched pattern.
    pub kind: AlertKind,
    /// Urgency.
    pub severity: Severity,
    /// Event time (ns) at which the detection became true.
    pub time_ns: u64,
    /// Start of the window that produced the alert, when windowed.
    pub window_start_ns: Option<u64>,
    /// Exclusive end of the window that produced the alert, when windowed.
    pub window_end_ns: Option<u64>,
    /// What the alert is about (a file tag, a thread name, a key).
    pub subject: String,
    /// Human-readable one-line description.
    pub message: String,
    /// Detector-specific structured payload (a rule set's `rule` name and
    /// the `values` its window aggregates read).
    pub fields: Value,
    /// The raw event documents that triggered the detection.
    pub evidence: Vec<Value>,
    /// Causal attribution computed by the DFG profiler when one is
    /// attached to the engine (`None` otherwise): the critical
    /// directly-follows edge over the alert window plus corroborating
    /// flight-recorder spans. Attribution is a decoration — it never
    /// changes the alert spine (kind, severity, window, subject,
    /// message, fields, evidence).
    pub attribution: Option<Value>,
}

impl Alert {
    /// Serializes the alert as a backend document (`kind: "alert"`).
    ///
    /// # Examples
    ///
    /// ```
    /// use dio_diagnose::{Alert, AlertKind, Severity};
    /// let alert = Alert {
    ///     seq: 0,
    ///     detector: "data_loss",
    ///     kind: AlertKind::DataLoss,
    ///     severity: Severity::Critical,
    ///     time_ns: 5,
    ///     window_start_ns: None,
    ///     window_end_ns: None,
    ///     subject: "7340032|12|200".into(),
    ///     message: "stale read".into(),
    ///     fields: serde_json::json!({}),
    ///     evidence: vec![],
    ///     attribution: None,
    /// };
    /// let doc = alert.to_document();
    /// assert_eq!(doc["kind"], "alert");
    /// assert_eq!(doc["alert_kind"], "data_loss");
    /// assert!(doc.get("metric").is_none(), "must not look like a health doc");
    /// assert!(doc.get("attribution").is_none(), "absent until a profiler attributes");
    /// ```
    pub fn to_document(&self) -> Value {
        let mut doc = json!({
            "kind": "alert",
            "seq": self.seq,
            "detector": self.detector,
            "alert_kind": self.kind.as_str(),
            "severity": self.severity.as_str(),
            "time": self.time_ns,
            "window_start_ns": self.window_start_ns,
            "window_end_ns": self.window_end_ns,
            "subject": self.subject,
            "message": self.message,
            "fields": self.fields,
            "evidence": self.evidence,
        });
        if let Some(attribution) = &self.attribution {
            doc["attribution"] = attribution.clone();
        }
        doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(kind: AlertKind, severity: Severity) -> Alert {
        Alert {
            seq: 3,
            detector: "t",
            kind,
            severity,
            time_ns: 42,
            window_start_ns: Some(0),
            window_end_ns: Some(100),
            subject: "s".into(),
            message: "m".into(),
            fields: json!({"a": 1}),
            evidence: vec![json!({"time": 42})],
            attribution: None,
        }
    }

    #[test]
    fn document_carries_all_fields() {
        let doc = sample(AlertKind::ContentionSkew, Severity::Warning).to_document();
        assert_eq!(doc["kind"], "alert");
        assert_eq!(doc["alert_kind"], "contention_skew");
        assert_eq!(doc["severity"], "warning");
        assert_eq!(doc["seq"], 3);
        assert_eq!(doc["time"], 42);
        assert_eq!(doc["window_end_ns"], 100);
        assert_eq!(doc["evidence"][0]["time"], 42);
    }

    #[test]
    fn attribution_block_rides_the_document_when_present() {
        let mut alert = sample(AlertKind::DataLoss, Severity::Critical);
        assert!(alert.to_document().get("attribution").is_none());
        alert.attribution = Some(json!({"edge": "write->fsync", "growth": 0.4}));
        let doc = alert.to_document();
        assert_eq!(doc["attribution"]["edge"], "write->fsync");
        // The spine is untouched by the decoration.
        let mut bare = sample(AlertKind::DataLoss, Severity::Critical).to_document();
        bare["attribution"] = doc["attribution"].clone();
        assert_eq!(bare, doc);
    }

    #[test]
    fn severity_orders_by_urgency() {
        assert!(Severity::Critical > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(AlertKind::DataLoss.to_string(), "data_loss");
        assert_eq!(AlertKind::SyscallRateAnomaly.as_str(), "syscall_rate_anomaly");
        assert_eq!(AlertKind::RuleMatch.as_str(), "rule_match");
        assert_eq!(Severity::Critical.to_string(), "critical");
    }

    #[test]
    fn parse_inverts_as_str() {
        for kind in [
            AlertKind::DataLoss,
            AlertKind::StaleOffsetResume,
            AlertKind::ContentionSkew,
            AlertKind::SyscallRateAnomaly,
            AlertKind::ErrorRateAnomaly,
            AlertKind::RuleMatch,
        ] {
            assert_eq!(AlertKind::parse(kind.as_str()), Some(kind));
        }
        assert_eq!(AlertKind::parse("nope"), None);
    }
}
