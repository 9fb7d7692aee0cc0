//! The typed job-failure taxonomy.

use std::fmt;
use std::time::Duration;

/// Why a job failed. Every failure mode the supervisor can
/// observe maps to exactly one variant, so manifests and reports can
/// classify failures without string matching.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The job panicked; the payload message is preserved.
    Panic(String),
    /// The job exceeded its wall-clock deadline.
    Timeout {
        /// How long the job had been running when it was killed.
        elapsed: Duration,
        /// The wall-clock deadline it exceeded. `None` when the deadline
        /// is not known, as for a timeout read back from a manifest.
        deadline: Option<Duration>,
    },
    /// The job ran but its cross-validation (pmcheck, faultsim) found a
    /// mismatch between checker verdicts and ground truth.
    Validation(String),
    /// Reading or writing artifacts failed.
    Io(String),
    /// The job reported a typed domain failure (bad parameters, …).
    Failed(String),
}

impl JobError {
    /// Stable machine-readable kind tag used in manifests.
    pub fn kind(&self) -> &'static str {
        match self {
            JobError::Panic(_) => "panic",
            JobError::Timeout { .. } => "timeout",
            JobError::Validation(_) => "validation",
            JobError::Io(_) => "io",
            JobError::Failed(_) => "failed",
        }
    }

    /// Human-readable detail without the kind prefix.
    pub fn detail(&self) -> String {
        match self {
            JobError::Panic(m)
            | JobError::Validation(m)
            | JobError::Io(m)
            | JobError::Failed(m) => m.clone(),
            JobError::Timeout {
                elapsed,
                deadline: Some(deadline),
            } => format!(
                "exceeded {:.1}s deadline after {:.1}s",
                deadline.as_secs_f64(),
                elapsed.as_secs_f64()
            ),
            JobError::Timeout {
                elapsed,
                deadline: None,
            } => format!("timed out after {:.1}s", elapsed.as_secs_f64()),
        }
    }

    /// Reassembles a `JobError` from its manifest `(kind, detail)` pair.
    /// Timeouts lose their exact durations across a round trip; the kind
    /// and message are what resume logic and reports rely on.
    pub fn from_kind(kind: &str, detail: &str) -> Self {
        match kind {
            "panic" => JobError::Panic(detail.to_string()),
            "timeout" => JobError::Timeout {
                elapsed: Duration::ZERO,
                deadline: None,
            },
            "validation" => JobError::Validation(detail.to_string()),
            "io" => JobError::Io(detail.to_string()),
            _ => JobError::Failed(detail.to_string()),
        }
    }
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind(), self.detail())
    }
}

impl std::error::Error for JobError {}

impl From<std::io::Error> for JobError {
    fn from(e: std::io::Error) -> Self {
        JobError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_stable_and_distinct() {
        let all = [
            JobError::Panic("p".into()),
            JobError::Timeout {
                elapsed: Duration::from_secs(2),
                deadline: Some(Duration::from_secs(1)),
            },
            JobError::Validation("v".into()),
            JobError::Io("i".into()),
            JobError::Failed("f".into()),
        ];
        let kinds: Vec<_> = all.iter().map(|e| e.kind()).collect();
        assert_eq!(kinds, ["panic", "timeout", "validation", "io", "failed"]);
        for e in &all {
            let rt = JobError::from_kind(e.kind(), &e.detail());
            assert_eq!(rt.kind(), e.kind());
        }
    }

    #[test]
    fn timeout_without_deadline_does_not_fabricate_one() {
        // Regression: a timeout with no known deadline used to claim the
        // elapsed time WAS the deadline ("exceeded 3.0s deadline after
        // 3.0s").
        let e = JobError::Timeout {
            elapsed: Duration::from_secs(3),
            deadline: None,
        };
        let d = e.detail();
        assert_eq!(d, "timed out after 3.0s");
        assert!(!d.contains("deadline"), "no fabricated deadline: {d}");
    }

    #[test]
    fn display_includes_kind_and_detail() {
        let e = JobError::Panic("boom".into());
        let s = e.to_string();
        assert!(s.contains("panic") && s.contains("boom"), "{s}");
    }
}
