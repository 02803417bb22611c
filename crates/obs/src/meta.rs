//! Self-describing run metadata and crash-safe file export.
//!
//! Perf artifacts (metrics JSON, `BENCH_*.json`) are only comparable across
//! runs when they say *how* they were produced. [`run_metadata`] captures
//! wall-clock and monotonic timestamps, the worker count a binary passes on
//! ([`crate::threads_from_env`]), the installed context's step budget and
//! every active `AFTER_*` env knob.
//!
//! [`write_atomic`] is the temp-file-plus-rename export primitive all
//! exporters go through: a panic (or a second process reading mid-export)
//! can observe the old file or the new file, never a truncated one.

use std::io;
use std::path::Path;
use std::sync::OnceLock;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use crate::json::Json;

static PROCESS_START: OnceLock<Instant> = OnceLock::new();

/// The process-start instant used for monotonic offsets in metadata. First
/// call pins it; [`crate::ObsSession::start`] calls this early so offsets
/// measure from session setup.
pub fn process_start() -> Instant {
    *PROCESS_START.get_or_init(Instant::now)
}

/// `YYYY-MM-DDThh:mm:ssZ` for a unix timestamp (civil-from-days, no
/// external date crate).
fn iso8601_utc(unix_s: u64) -> String {
    let days = unix_s / 86_400;
    let secs = unix_s % 86_400;
    // Howard Hinnant's civil_from_days, shifted so day 0 = 1970-01-01.
    let z = days as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{:04}-{:02}-{:02}T{:02}:{:02}:{:02}Z", y, m, d, secs / 3600, (secs % 3600) / 60, secs % 60)
}

/// The self-describing metadata block embedded in metrics JSON and
/// `BENCH_*.json` artifacts.
pub fn run_metadata() -> Json {
    let unix_s = SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_secs()).unwrap_or(0);
    let mut env: Vec<(String, String)> = std::env::vars().filter(|(k, _)| k.starts_with("AFTER_")).collect();
    env.sort();
    let mut env_json = Json::obj();
    for (k, v) in &env {
        env_json = env_json.set(k, v.as_str());
    }
    Json::obj()
        .set("unix_time_s", unix_s)
        .set("wall_clock_utc", iso8601_utc(unix_s))
        .set("monotonic_ms", process_start().elapsed().as_secs_f64() * 1e3)
        .set("threads", crate::threads_from_env())
        .set(
            "slo_budget_ms",
            crate::current_ctx().and_then(|ctx| ctx.slo_budget_ms).map_or(Json::Null, Json::from),
        )
        .set("env", env_json)
}

/// Writes `contents` to `path` atomically: the bytes land in a sibling temp
/// file which is then renamed over the target, so readers (and crashes mid-
/// write) see either the previous complete file or the new one — never a
/// truncated export.
pub fn write_atomic(path: &Path, contents: &str) -> io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let file_name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let tmp_name = format!(".{}.tmp{}", file_name.to_string_lossy(), std::process::id());
    let tmp = match dir {
        Some(dir) => dir.join(&tmp_name),
        None => Path::new(&tmp_name).to_path_buf(),
    };
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path).inspect_err(|_| {
        std::fs::remove_file(&tmp).ok();
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iso8601_matches_known_dates() {
        assert_eq!(iso8601_utc(0), "1970-01-01T00:00:00Z");
        assert_eq!(iso8601_utc(951_782_400), "2000-02-29T00:00:00Z");
        assert_eq!(iso8601_utc(1_754_611_200), "2025-08-08T00:00:00Z");
        assert_eq!(iso8601_utc(86_399), "1970-01-01T23:59:59Z");
    }

    #[test]
    fn metadata_has_the_self_describing_fields() {
        let meta = run_metadata();
        assert!(meta.get("unix_time_s").and_then(Json::as_f64).unwrap() > 1.7e9);
        assert!(meta.get("wall_clock_utc").and_then(Json::as_str).unwrap().ends_with('Z'));
        assert!(meta.get("monotonic_ms").and_then(Json::as_f64).unwrap() >= 0.0);
        assert!(meta.get("threads").and_then(Json::as_f64).unwrap() >= 1.0);
        assert!(meta.get("env").is_some());
        assert!(Json::parse(&meta.pretty()).is_ok());
    }

    #[test]
    fn write_atomic_replaces_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join(format!("xr_obs_meta_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.json");
        write_atomic(&path, "first").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "first");
        write_atomic(&path, "second").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "second");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "temp files must not survive a successful write");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_atomic_rejects_pathless_targets() {
        assert!(write_atomic(Path::new(".."), "x").is_err());
    }
}
