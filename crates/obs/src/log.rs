//! A leveled, target-prefixed stderr logger.
//!
//! The grid coordinator, workers, and CLI used to narrate via bare
//! `eprintln!`; this module gives that chatter levels so the default
//! experience is quiet. The level comes from `PPA_LOG`
//! (`error|warn|info|debug`, default [`Level::Warn`]) and can be
//! overridden programmatically — `ppa-grid work|selftest -q/-v/-vv` maps
//! to error/info/debug via [`set_level`].
//!
//! Lines print as `<target>: <message>` — the target names the
//! subsystem (`grid.coord`, `grid.worker`), matching the metric
//! namespace. Output goes to stderr only, preserving the stdout
//! byte-identity invariant.
//!
//! # Examples
//!
//! ```
//! ppa_obs::log::set_level(ppa_obs::Level::Info);
//! ppa_obs::info!("doc.example", "connected to {}", "127.0.0.1:9");
//! assert!(ppa_obs::log::enabled(ppa_obs::Level::Info));
//! ```

use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};

/// Log severity, most severe first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// The operation failed; the caller will see an error anyway, but
    /// this is where the details go.
    Error = 0,
    /// Something degraded but recoverable (a worker died mid-lease,
    /// a unit is being re-dispatched).
    Warn = 1,
    /// Progress narration (listening, connected, finished) — the
    /// pre-logger `eprintln!` chatter lives here.
    Info = 2,
    /// Per-unit/per-message detail for debugging protocol issues.
    Debug = 3,
}

impl Level {
    fn from_env(s: &str) -> Option<Level> {
        match s.trim() {
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            _ => None,
        }
    }
}

const UNSET: u8 = u8::MAX;
static LEVEL: AtomicU8 = AtomicU8::new(UNSET);

/// The active level: the last [`set_level`], else `PPA_LOG`, else
/// [`Level::Warn`].
pub fn level() -> Level {
    match LEVEL.load(Ordering::Relaxed) {
        UNSET => {
            let from_env = std::env::var("PPA_LOG")
                .ok()
                .and_then(|s| Level::from_env(&s))
                .unwrap_or(Level::Warn);
            // Racing first calls agree (the env doesn't change), so a
            // plain store is fine.
            LEVEL.store(from_env as u8, Ordering::Relaxed);
            from_env
        }
        0 => Level::Error,
        1 => Level::Warn,
        2 => Level::Info,
        _ => Level::Debug,
    }
}

/// Overrides the level (CLI `-q`/`-v` flags win over `PPA_LOG`).
pub fn set_level(l: Level) {
    LEVEL.store(l as u8, Ordering::Relaxed);
}

/// Applies a CLI verbosity flag if `a` is one: `-q`/`--quiet` sets
/// [`Level::Error`], `-v`/`--verbose` [`Level::Info`] and `-vv`
/// [`Level::Debug`]. Returns whether `a` was consumed.
pub fn verbosity_flag(a: &str) -> bool {
    let level = match a {
        "-q" | "--quiet" => Level::Error,
        "-v" | "--verbose" => Level::Info,
        "-vv" => Level::Debug,
        _ => return false,
    };
    set_level(level);
    true
}

/// Whether messages at `l` currently print.
pub fn enabled(l: Level) -> bool {
    l <= level()
}

/// Prints `<target>: <message>` to stderr if `l` is enabled. Use the
/// [`crate::error!`]/[`crate::warn!`]/[`crate::info!`]/[`crate::debug!`]
/// macros rather than calling this directly.
pub fn log(l: Level, target: &str, args: fmt::Arguments<'_>) {
    if enabled(l) {
        eprintln!("{target}: {args}");
    }
}

/// Logs at [`Level::Error`]: `ppa_obs::error!("grid.coord", "bind failed: {e}")`.
#[macro_export]
macro_rules! error {
    ($target:expr, $($arg:tt)+) => {
        $crate::log::log($crate::Level::Error, $target, ::std::format_args!($($arg)+))
    };
}

/// Logs at [`Level::Warn`]: `ppa_obs::warn!("grid.coord", "worker {w} lost")`.
#[macro_export]
macro_rules! warn {
    ($target:expr, $($arg:tt)+) => {
        $crate::log::log($crate::Level::Warn, $target, ::std::format_args!($($arg)+))
    };
}

/// Logs at [`Level::Info`]: `ppa_obs::info!("grid.worker", "connected")`.
#[macro_export]
macro_rules! info {
    ($target:expr, $($arg:tt)+) => {
        $crate::log::log($crate::Level::Info, $target, ::std::format_args!($($arg)+))
    };
}

/// Logs at [`Level::Debug`]: `ppa_obs::debug!("grid.proto", "frame {n} ok")`.
#[macro_export]
macro_rules! debug {
    ($target:expr, $($arg:tt)+) => {
        $crate::log::log($crate::Level::Debug, $target, ::std::format_args!($($arg)+))
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_matches_severity() {
        assert!(Level::Error < Level::Warn);
        assert!(Level::Warn < Level::Info);
        assert!(Level::Info < Level::Debug);
    }

    #[test]
    fn set_level_gates_enabled() {
        set_level(Level::Warn);
        assert!(enabled(Level::Error));
        assert!(enabled(Level::Warn));
        assert!(!enabled(Level::Info));
        set_level(Level::Debug);
        assert!(enabled(Level::Debug));
        set_level(Level::Warn);
    }

    #[test]
    fn env_strings_parse() {
        assert_eq!(Level::from_env("error"), Some(Level::Error));
        assert_eq!(Level::from_env(" warn "), Some(Level::Warn));
        assert_eq!(Level::from_env("warning"), Some(Level::Warn));
        assert_eq!(Level::from_env("info"), Some(Level::Info));
        assert_eq!(Level::from_env("debug"), Some(Level::Debug));
        assert_eq!(Level::from_env("verbose"), None);
    }

    #[test]
    fn macros_format_lazily_and_compile() {
        set_level(Level::Warn);
        // These must compile with format args and not print (level
        // gates them); output correctness is eyeballed via stderr in
        // the integration tests.
        crate::info!("test.log", "hidden {}", 1);
        crate::debug!("test.log", "hidden {}", 2);
        set_level(Level::Warn);
    }
}
