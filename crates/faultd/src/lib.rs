//! Fault-injection harness and crash-safe I/O helpers.
//!
//! Every state-mutating I/O path in the workspace funnels through this
//! crate: [`write_atomic`] (temp file + fsync + atomic rename) and
//! [`retry`] (bounded retry with linear backoff on transient errors).
//! Each helper probes a named *fault site* first, so an external harness
//! can inject I/O errors, short writes, or process death at any of them
//! without touching the code under test.
//!
//! # Arming faults
//!
//! Injection is armed purely through the environment (parsed once, on
//! first probe):
//!
//! | Variable | Meaning |
//! |---|---|
//! | `SPECTRAL_FAULT_SITES` | `site:prob[,site:prob…]` — fail the probe with a *hard* I/O error at the given probability |
//! | `SPECTRAL_FAULT_TRANSIENT` | same syntax — fail with a *transient* (retryable) error |
//! | `SPECTRAL_FAULT_SHORT` | same syntax — truncate the next durable write at the site, then fail it |
//! | `SPECTRAL_FAULT_KILL` | `site[:nth]` — abort the process at the *nth* probe of `site` (default 1), simulating SIGKILL |
//! | `SPECTRAL_FAULT_SEED` | seed for the deterministic probe RNG (default `0xC0FFEE`) |
//! | `SPECTRAL_FAULT_RETRIES` | max attempts in [`retry`] (default 3) |
//! | `SPECTRAL_FAULT_BACKOFF_MS` | base backoff in milliseconds between attempts (default 1) |
//!
//! A site name in the spec may end with `*` to prefix-match (e.g.
//! `library.*:1.0`). With the `inject` feature disabled (default-on)
//! every probe compiles to `Ok(())` and the parser is never built; the
//! durable-write helpers keep their crash-safety protocol either way.
//!
//! # Crash-safety contract
//!
//! [`write_atomic`] guarantees that a reader observes either the old
//! file contents or the complete new contents, never a torn mix: bytes
//! land in a sibling temp file, are fsynced, and only then renamed over
//! the destination (the directory is fsynced afterwards, best-effort).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fs;
use std::io::{self, Write as _};
use std::path::Path;

/// Default maximum attempts for [`retry`].
pub const DEFAULT_RETRIES: u32 = 3;
/// Default base backoff between [`retry`] attempts, in milliseconds.
pub const DEFAULT_BACKOFF_MS: u64 = 1;

/// Marker prefix carried by every injected error's message.
///
/// Lets integration tests distinguish injected faults from real I/O
/// failures: `e.to_string().starts_with(INJECTED_PREFIX)`.
pub const INJECTED_PREFIX: &str = "injected fault";

#[cfg(feature = "inject")]
mod armed {
    use super::INJECTED_PREFIX;
    use std::collections::HashMap;
    use std::io;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Mutex, OnceLock};

    /// One `site:prob` arm from an env spec.
    #[derive(Debug, Clone)]
    struct Arm {
        site: String,
        prefix: bool,
        prob: f64,
    }

    #[derive(Debug, Default)]
    pub(super) struct Config {
        hard: Vec<Arm>,
        transient: Vec<Arm>,
        short: Vec<Arm>,
        kill_site: Option<(String, bool, u64)>,
        seed: u64,
    }

    fn parse_arms(spec: &str) -> Vec<Arm> {
        spec.split(',')
            .filter_map(|part| {
                let part = part.trim();
                let (site, prob) = part.rsplit_once(':')?;
                let prob: f64 = prob.parse().ok()?;
                let (site, prefix) = match site.strip_suffix('*') {
                    Some(stem) => (stem, true),
                    None => (site, false),
                };
                Some(Arm { site: site.to_string(), prefix, prob })
            })
            .collect()
    }

    fn config() -> &'static Config {
        static CONFIG: OnceLock<Config> = OnceLock::new();
        CONFIG.get_or_init(|| {
            let get = |k: &str| std::env::var(k).unwrap_or_default();
            let kill_spec = get("SPECTRAL_FAULT_KILL");
            let kill_site = if kill_spec.is_empty() {
                None
            } else {
                let (site, nth) = match kill_spec.rsplit_once(':') {
                    Some((s, n)) => (s.to_string(), n.parse().unwrap_or(1)),
                    None => (kill_spec.clone(), 1),
                };
                let (site, prefix) = match site.strip_suffix('*') {
                    Some(stem) => (stem.to_string(), true),
                    None => (site, false),
                };
                Some((site, prefix, nth.max(1)))
            };
            Config {
                hard: parse_arms(&get("SPECTRAL_FAULT_SITES")),
                transient: parse_arms(&get("SPECTRAL_FAULT_TRANSIENT")),
                short: parse_arms(&get("SPECTRAL_FAULT_SHORT")),
                kill_site,
                seed: std::env::var("SPECTRAL_FAULT_SEED")
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(0xC0FFEE),
            }
        })
    }

    fn matches(arm_site: &str, prefix: bool, site: &str) -> bool {
        if prefix {
            site.starts_with(arm_site)
        } else {
            site == arm_site
        }
    }

    /// Deterministic xorshift64* stream shared by every probe.
    fn chance(prob: f64) -> bool {
        if prob >= 1.0 {
            return true;
        }
        if prob <= 0.0 {
            return false;
        }
        static STATE: AtomicU64 = AtomicU64::new(0);
        let mut cur = STATE.load(Ordering::Relaxed);
        loop {
            let seeded = if cur == 0 { config().seed | 1 } else { cur };
            let mut x = seeded;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            match STATE.compare_exchange_weak(cur, x, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => {
                    let unit =
                        (x.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64;
                    return unit < prob;
                }
                Err(seen) => cur = seen,
            }
        }
    }

    fn hit(arms: &[Arm], site: &str) -> bool {
        arms.iter().any(|a| matches(&a.site, a.prefix, site) && chance(a.prob))
    }

    static INJECTED: AtomicU64 = AtomicU64::new(0);

    pub(super) fn injected_count() -> u64 {
        INJECTED.load(Ordering::Relaxed)
    }

    pub(super) fn probe(site: &str) -> io::Result<()> {
        let cfg = config();
        kill_point(site);
        if hit(&cfg.hard, site) {
            INJECTED.fetch_add(1, Ordering::Relaxed);
            return Err(io::Error::other(format!("{INJECTED_PREFIX} at {site}")));
        }
        if hit(&cfg.transient, site) {
            INJECTED.fetch_add(1, Ordering::Relaxed);
            return Err(io::Error::new(
                io::ErrorKind::Interrupted,
                format!("{INJECTED_PREFIX} (transient) at {site}"),
            ));
        }
        Ok(())
    }

    pub(super) fn short_write_len(site: &str, len: usize) -> Option<usize> {
        if hit(&config().short, site) {
            INJECTED.fetch_add(1, Ordering::Relaxed);
            Some(len / 2)
        } else {
            None
        }
    }

    pub(super) fn kill_point(site: &str) {
        let Some((kill, prefix, nth)) = &config().kill_site else {
            return;
        };
        if !matches(kill, *prefix, site) {
            return;
        }
        static COUNTS: OnceLock<Mutex<HashMap<String, u64>>> = OnceLock::new();
        let mut counts = COUNTS
            .get_or_init(|| Mutex::new(HashMap::new()))
            .lock()
            .expect("fault-site counter lock poisoned");
        let n = counts.entry(site.to_string()).or_insert(0);
        *n += 1;
        if *n == *nth {
            // Simulate SIGKILL: no unwinding, no destructors, no
            // buffered-writer flushes.
            eprintln!("spectral-faultd: killing process at fault site '{site}' (probe #{n})");
            std::process::abort();
        }
    }
}

#[cfg(not(feature = "inject"))]
mod armed {
    use std::io;

    pub(super) fn injected_count() -> u64 {
        0
    }

    pub(super) fn probe(_site: &str) -> io::Result<()> {
        Ok(())
    }

    pub(super) fn short_write_len(_site: &str, _len: usize) -> Option<usize> {
        None
    }

    pub(super) fn kill_point(_site: &str) {}
}

/// Probe a named fault site.
///
/// Returns an injected error when the environment arms this site (see
/// the crate docs), aborts the process when a kill is armed here, and
/// is a no-op (`Ok`) otherwise — a single relaxed atomic load plus a
/// site-name comparison when armed, nothing at all when the `inject`
/// feature is off.
pub fn probe(site: &str) -> io::Result<()> {
    armed::probe(site)
}

/// Abort the process if a kill is armed at `site` (no error path).
///
/// Use at pure kill-points that have no natural `Result` to thread an
/// injected error through, e.g. "between fsync and rename".
pub fn kill_point(site: &str) {
    armed::kill_point(site)
}

/// Total faults injected so far in this process (0 when unarmed).
pub fn injected_count() -> u64 {
    armed::injected_count()
}

/// Whether `e` is transient and worth retrying.
///
/// Covers `Interrupted`/`WouldBlock`/`TimedOut` — the kinds used both
/// by real kernels for retryable conditions and by this crate's
/// transient injection.
pub fn is_transient(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

fn retry_budget() -> (u32, u64) {
    let attempts = std::env::var("SPECTRAL_FAULT_RETRIES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_RETRIES)
        .max(1);
    let backoff = std::env::var("SPECTRAL_FAULT_BACKOFF_MS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_BACKOFF_MS);
    (attempts, backoff)
}

/// Run `op` with bounded retry and linear backoff on transient errors.
///
/// `op` is attempted up to `SPECTRAL_FAULT_RETRIES` times (default 3);
/// between attempts the thread sleeps `attempt * SPECTRAL_FAULT_BACKOFF_MS`
/// milliseconds (default 1 ms). Hard errors and the final transient
/// error propagate unchanged. `site` names the operation for the probe
/// that guards the first attempt.
pub fn retry<T>(site: &str, mut op: impl FnMut() -> io::Result<T>) -> io::Result<T> {
    let (attempts, backoff_ms) = retry_budget();
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        let result = probe(site).and_then(|()| op());
        match result {
            Ok(v) => return Ok(v),
            Err(e) if is_transient(&e) && attempt < attempts => {
                std::thread::sleep(std::time::Duration::from_millis(
                    backoff_ms.saturating_mul(attempt as u64),
                ));
            }
            Err(e) => return Err(e),
        }
    }
}

/// Fsync `path`'s parent directory so a completed rename survives a
/// crash. Best-effort: directory fsync is not supported everywhere.
fn sync_parent_dir(path: &Path) {
    if let Some(dir) = path.parent() {
        let dir = if dir.as_os_str().is_empty() { Path::new(".") } else { dir };
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
}

/// Write `bytes` to `path` atomically: temp file, fsync, rename.
///
/// A crash (or injected kill) at any instant leaves either the old
/// contents of `path` or the complete new contents — never a torn
/// file. A stale `.tmp` sibling may survive a crash; it is overwritten
/// by the next successful write. Short-write injection at `site`
/// truncates the temp file and fails before the rename, so the
/// destination is still intact.
pub fn write_atomic(site: &str, path: &Path, bytes: &[u8]) -> io::Result<()> {
    probe(site)?;
    let tmp = tmp_sibling(path);
    let write_result = (|| -> io::Result<()> {
        let mut f = fs::File::create(&tmp)?;
        match armed::short_write_len(site, bytes.len()) {
            Some(n) => {
                f.write_all(&bytes[..n])?;
                f.sync_all()?;
                return Err(io::Error::other(format!(
                    "{INJECTED_PREFIX} (short write, {n}/{} bytes) at {site}",
                    bytes.len()
                )));
            }
            None => f.write_all(bytes)?,
        }
        f.sync_all()
    })();
    if let Err(e) = write_result {
        let _ = fs::remove_file(&tmp);
        return Err(e);
    }
    // The classic torn-state window: data is durable in the temp file
    // but the destination still holds the old version.
    kill_point(&format!("{site}.rename"));
    fs::rename(&tmp, path)?;
    sync_parent_dir(path);
    Ok(())
}

fn tmp_sibling(path: &Path) -> std::path::PathBuf {
    let mut name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    name.push(format!(".tmp.{}", std::process::id()));
    path.with_file_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_probe_is_ok() {
        assert!(probe("test.site").is_ok());
        kill_point("test.site");
    }

    #[test]
    fn write_atomic_round_trips() {
        let dir = std::env::temp_dir().join(format!("faultd-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.json");
        write_atomic("test.write", &path, b"old").unwrap();
        write_atomic("test.write", &path, b"new contents").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"new contents");
        assert!(fs::read_dir(&dir).unwrap().count() == 1, "no temp litter after successful writes");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn retry_recovers_from_transients() {
        let mut failures = 2;
        let out = retry("test.retry", || {
            if failures > 0 {
                failures -= 1;
                Err(io::Error::new(io::ErrorKind::Interrupted, "flaky"))
            } else {
                Ok(42)
            }
        })
        .unwrap();
        assert_eq!(out, 42);
    }

    #[test]
    fn retry_propagates_hard_errors() {
        let err = retry("test.retry.hard", || -> io::Result<()> {
            Err(io::Error::other("disk on fire"))
        })
        .unwrap_err();
        assert_eq!(err.to_string(), "disk on fire");
    }

    #[test]
    fn transient_classification() {
        assert!(is_transient(&io::Error::new(io::ErrorKind::Interrupted, "x")));
        assert!(!is_transient(&io::Error::other("x")));
    }
}
