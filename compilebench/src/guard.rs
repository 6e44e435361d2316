//! Failure isolation: every op runs under `catch_unwind`, so a panic inside
//! the flow fails that op with its message and location instead of ending
//! the run.

use std::cell::RefCell;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};

/// Why an op did not complete.
#[derive(Debug, Clone, PartialEq)]
pub enum Failure {
    /// The flow returned an error or panicked.
    Error(String),
    /// The flow completed but an independent output check rejected it.
    Violation(String),
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Failure::Error(text) => f.write_str(text),
            Failure::Violation(text) => write!(f, "output check failed: {text}"),
        }
    }
}

thread_local! {
    static LAST_PANIC: RefCell<Option<String>> = const { RefCell::new(None) };
}

/// Replaces the default panic printer with one that keeps the message and
/// location for [`guarded`] to report. Call once, before any op runs.
pub fn install_panic_hook() {
    panic::set_hook(Box::new(|info| {
        let message = info
            .payload()
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| info.payload().downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        let at = info.location().map_or_else(String::new, |l| {
            // Keep the path from the crate directory on, so the text does
            // not depend on where the checkout lives.
            let file = l.file();
            let file = file.find("crates/").map_or(file, |i| &file[i..]);
            format!(" at {file}:{}", l.line())
        });
        let message = message.split_whitespace().collect::<Vec<_>>().join(" ");
        LAST_PANIC.with(|p| *p.borrow_mut() = Some(format!("panic{at}: {message}")));
    }));
}

/// The message of the last panic on this thread, if any.
pub fn last_panic() -> Option<String> {
    LAST_PANIC.with(|p| p.borrow_mut().take())
}

/// Runs `f`, turning an `Err` or a panic into [`Failure::Error`].
pub fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, Failure> {
    match panic::catch_unwind(AssertUnwindSafe(f)) {
        Ok(Ok(value)) => Ok(value),
        Ok(Err(text)) => Err(Failure::Error(text)),
        Err(_) => Err(Failure::Error(
            last_panic().unwrap_or_else(|| "panic".to_string()),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_and_panics_become_failures_with_their_text() {
        install_panic_hook();
        assert_eq!(guarded(|| Ok::<_, String>(3)), Ok(3));
        assert_eq!(
            guarded(|| Err::<(), _>("bad input".to_string())),
            Err(Failure::Error("bad input".to_string()))
        );
        let failure = guarded::<()>(|| panic!("cycle in {}", "pdg")).unwrap_err();
        let Failure::Error(text) = failure else {
            panic!("a panic is an error, not a violation");
        };
        assert!(text.starts_with("panic at "), "{text}");
        assert!(text.ends_with(": cycle in pdg"), "{text}");
    }
}
