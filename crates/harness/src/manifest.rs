//! The run manifest: durable per-job progress for `results/manifest.json`.
//!
//! The scheduler rewrites the manifest (atomically) after every job state
//! change, so at any instant the file on disk describes exactly which
//! jobs completed, which failed and why, and which were in flight. A
//! later `repro … --resume` loads it, skips completed jobs whose
//! artifacts still exist, and re-runs the rest.
//!
//! Wall-clock durations are recorded for humans but deliberately ignored
//! when comparing runs: the *results* of a resumed run must be
//! byte-identical to an uninterrupted one, while its timings never are.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::error::JobError;
use crate::fsutil::write_atomic;
use crate::jsonio::JsonValue;

/// Manifest format version (bumped on incompatible layout changes; a
/// mismatched manifest is ignored on resume rather than misread).
pub const MANIFEST_VERSION: u64 = 1;

/// Terminal or in-flight state of one job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobStatus {
    /// Queued but not yet started (present so a killed run's manifest
    /// still lists the full matrix).
    Pending,
    /// Started and not finished when the manifest was written — on
    /// resume this means "the run was killed mid-job; run it again from
    /// the start".
    Running,
    /// Completed and validated.
    Done,
    /// Failed; carries the error.
    Failed(JobError),
}

impl JobStatus {
    fn tag(&self) -> &'static str {
        match self {
            JobStatus::Pending => "pending",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Failed(_) => "failed",
        }
    }
}

/// One job's durable record.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// Current status.
    pub status: JobStatus,
    /// Wall-clock milliseconds of the job's run (0 until it finishes).
    pub wall_ms: u64,
    /// Artifacts the job produced.
    pub artifacts: Vec<PathBuf>,
    /// The job's one-line summary (empty until done).
    pub summary: String,
}

impl JobRecord {
    fn new() -> Self {
        JobRecord {
            status: JobStatus::Pending,
            wall_ms: 0,
            artifacts: Vec::new(),
            summary: String::new(),
        }
    }
}

/// The durable run manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Base seed of the run; a resume under a different seed discards
    /// the manifest (results would not merge deterministically).
    pub base_seed: u64,
    /// Scale tag (`smoke` / `default` / `full`) — must also match on
    /// resume.
    pub scale: String,
    /// Job records, keyed by job id (sorted for stable rendering).
    pub jobs: BTreeMap<String, JobRecord>,
}

impl Manifest {
    /// Creates an empty manifest for a new run.
    pub fn new(base_seed: u64, scale: impl Into<String>) -> Self {
        Manifest {
            base_seed,
            scale: scale.into(),
            jobs: BTreeMap::new(),
        }
    }

    /// Ensures a record exists for `job_id` and returns it mutably.
    pub fn record_mut(&mut self, job_id: &str) -> &mut JobRecord {
        self.jobs
            .entry(job_id.to_string())
            .or_insert_with(JobRecord::new)
    }

    /// Returns `true` if the job completed and every recorded artifact
    /// still exists under `out_dir` (a deleted artifact forces a re-run).
    pub fn is_complete(&self, job_id: &str, out_dir: &Path) -> bool {
        match self.jobs.get(job_id) {
            Some(r) if r.status == JobStatus::Done => r.artifacts.iter().all(|a| {
                let p = if a.is_absolute() {
                    a.clone()
                } else {
                    out_dir.join(a)
                };
                p.exists()
            }),
            _ => false,
        }
    }

    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> String {
        let jobs = self
            .jobs
            .iter()
            .map(|(id, r)| {
                let mut fields = vec![
                    (
                        "status".to_string(),
                        JsonValue::String(r.status.tag().into()),
                    ),
                    ("wall_ms".to_string(), JsonValue::Number(r.wall_ms as f64)),
                    (
                        "artifacts".to_string(),
                        JsonValue::Array(
                            r.artifacts
                                .iter()
                                .map(|p| JsonValue::String(p.display().to_string()))
                                .collect(),
                        ),
                    ),
                    ("summary".to_string(), JsonValue::String(r.summary.clone())),
                ];
                if let JobStatus::Failed(e) = &r.status {
                    fields.push((
                        "error_kind".to_string(),
                        JsonValue::String(e.kind().to_string()),
                    ));
                    fields.push(("error".to_string(), JsonValue::String(e.detail())));
                }
                (id.clone(), JsonValue::Object(fields))
            })
            .collect();
        JsonValue::Object(vec![
            (
                "version".to_string(),
                JsonValue::Number(MANIFEST_VERSION as f64),
            ),
            (
                "base_seed".to_string(),
                JsonValue::Number(self.base_seed as f64),
            ),
            ("scale".to_string(), JsonValue::String(self.scale.clone())),
            ("jobs".to_string(), JsonValue::Object(jobs)),
        ])
        .to_pretty()
    }

    /// Parses a manifest previously written by [`Manifest::to_json`].
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = JsonValue::parse(text)?;
        let version = v
            .get("version")
            .and_then(JsonValue::as_u64)
            .ok_or("missing version")?;
        if version != MANIFEST_VERSION {
            return Err(format!("manifest version {version} != {MANIFEST_VERSION}"));
        }
        let base_seed = v
            .get("base_seed")
            .and_then(JsonValue::as_u64)
            .ok_or("missing base_seed")?;
        let scale = v
            .get("scale")
            .and_then(JsonValue::as_str)
            .ok_or("missing scale")?
            .to_string();
        let mut jobs = BTreeMap::new();
        for (id, jr) in v
            .get("jobs")
            .and_then(JsonValue::as_object)
            .ok_or("missing jobs")?
        {
            let status_tag = jr
                .get("status")
                .and_then(JsonValue::as_str)
                .ok_or("missing status")?;
            let status = match status_tag {
                "pending" => JobStatus::Pending,
                "running" => JobStatus::Running,
                "done" => JobStatus::Done,
                "failed" => JobStatus::Failed(JobError::from_kind(
                    jr.get("error_kind")
                        .and_then(JsonValue::as_str)
                        .unwrap_or("failed"),
                    jr.get("error").and_then(JsonValue::as_str).unwrap_or(""),
                )),
                other => return Err(format!("unknown status '{other}'")),
            };
            let artifacts = jr
                .get("artifacts")
                .and_then(JsonValue::as_array)
                .unwrap_or(&[])
                .iter()
                .filter_map(|a| a.as_str().map(PathBuf::from))
                .collect();
            jobs.insert(
                id.clone(),
                JobRecord {
                    status,
                    wall_ms: jr.get("wall_ms").and_then(JsonValue::as_u64).unwrap_or(0),
                    artifacts,
                    summary: jr
                        .get("summary")
                        .and_then(JsonValue::as_str)
                        .unwrap_or("")
                        .to_string(),
                },
            );
        }
        Ok(Manifest {
            base_seed,
            scale,
            jobs,
        })
    }

    /// Atomically writes the manifest to `path`.
    pub fn save(&self, path: &Path) -> Result<(), JobError> {
        write_atomic(path, self.to_json().as_bytes())?;
        Ok(())
    }

    /// Loads a manifest, returning `None` when the file is missing,
    /// unparsable, or from an incompatible run (wrong version) — resume
    /// then degrades to a fresh run.
    pub fn load(path: &Path) -> Option<Self> {
        let text = std::fs::read_to_string(path).ok()?;
        Manifest::from_json(&text).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        let mut m = Manifest::new(0xABCD, "smoke");
        {
            let r = m.record_mut("e0:g1");
            r.status = JobStatus::Done;
            r.wall_ms = 123;
            r.artifacts = vec![PathBuf::from("e0_g1.csv")];
            r.summary = "ok".into();
        }
        {
            let r = m.record_mut("e7");
            r.status = JobStatus::Failed(JobError::Panic("index out of bounds".into()));
        }
        m.record_mut("mixes:g2").status = JobStatus::Running;
        m
    }

    #[test]
    fn json_round_trip_preserves_everything() {
        let m = sample();
        let text = m.to_json();
        let parsed = Manifest::from_json(&text).unwrap();
        assert_eq!(parsed, m);
    }

    #[test]
    fn completion_requires_existing_artifacts() {
        let dir = std::env::temp_dir().join(format!("harness_manifest_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let m = sample();
        // Artifact missing → not complete.
        assert!(!m.is_complete("e0:g1", &dir));
        std::fs::write(dir.join("e0_g1.csv"), b"x,y\n").unwrap();
        assert!(m.is_complete("e0:g1", &dir));
        // Failed and running jobs are never complete.
        assert!(!m.is_complete("e7", &dir));
        assert!(!m.is_complete("mixes:g2", &dir));
        assert!(!m.is_complete("unknown", &dir));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_load_round_trip_and_corrupt_load_is_none() {
        let dir = std::env::temp_dir().join(format!("harness_manifest_io_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("manifest.json");
        let m = sample();
        m.save(&path).unwrap();
        assert_eq!(Manifest::load(&path), Some(m));
        std::fs::write(&path, b"{ torn").unwrap();
        assert_eq!(Manifest::load(&path), None);
        assert_eq!(Manifest::load(&dir.join("absent.json")), None);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
