//! The suite-wide error type.
//!
//! Every fallible ATS subsystem — the property-run dispatcher, the trace
//! readers, the analyzer's ingest path, the fuzzer's scenario/oracle/corpus
//! machinery — reports failures through one [`Error`] so callers (bins,
//! CI scripts, the fuzz campaign) can branch on a stable machine-readable
//! [`ErrorKind`] discriminant instead of string-matching rendered messages.
//!
//! [`Error::in_config`] attaches the property name and full parameter
//! assignment exactly once, so a failing configuration inside a
//! pool-parallel sweep is identifiable from the error alone, without
//! re-running the sweep serially.
//!
//! Messages quote offending input through [`quote`], so an error stays
//! small however large the input that caused it.

use ats_trace::io::TraceIoError;

/// The most bytes of offending input an error message quotes.
const QUOTE_LIMIT: usize = 64;

/// Quote offending input for an error message: in backticks, cut to at
/// most 64 bytes on a char boundary, and stating the full length when cut.
pub fn quote(text: &str) -> String {
    if text.len() <= QUOTE_LIMIT {
        return format!("`{text}`");
    }
    let mut end = QUOTE_LIMIT;
    while !text.is_char_boundary(end) {
        end -= 1;
    }
    format!("`{}…` ({} bytes)", &text[..end], text.len())
}

/// Stable failure category. The [`ErrorKind::as_str`] discriminants are a
/// compatibility surface: scripts may match on them, so variants may be
/// added but existing strings never change meaning.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorKind {
    /// No catalog entry with the requested property name.
    UnknownProperty,
    /// A parameter assignment that the catalog rejects.
    InvalidParam,
    /// A failure attributed to one concrete run configuration.
    Config,
    /// Underlying I/O failure while reading or writing a trace.
    TraceIo,
    /// Structurally invalid trace bytes (bad header, truncation, …).
    TraceFormat,
    /// A fuzz scenario that fails validation or deserialization.
    Scenario,
    /// The fuzz oracle could not predict or check a scenario.
    Oracle,
    /// Corpus persistence (save/load/replay) failed.
    Corpus,
    /// A fuzz campaign failed outside any single scenario.
    Campaign,
    /// The content-addressed artifact store failed (I/O, index, or
    /// integrity verification).
    Store,
    /// An analyzer report document that fails wire-schema validation
    /// (unknown schema tag, missing or mistyped field).
    Report,
    /// A service request the campaign server rejects (bad route, body,
    /// or protocol use).
    Request,
}

impl ErrorKind {
    /// The stable machine-readable discriminant for this kind.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::UnknownProperty => "unknown_property",
            ErrorKind::InvalidParam => "invalid_param",
            ErrorKind::Config => "config",
            ErrorKind::TraceIo => "trace_io",
            ErrorKind::TraceFormat => "trace_format",
            ErrorKind::Scenario => "scenario",
            ErrorKind::Oracle => "oracle",
            ErrorKind::Corpus => "corpus",
            ErrorKind::Campaign => "campaign",
            ErrorKind::Store => "store",
            ErrorKind::Report => "report",
            ErrorKind::Request => "request",
        }
    }
}

impl std::fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The suite-wide error: a [`ErrorKind`] plus a rendered message, with
/// optional attribution to the property configuration it arose from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    kind: ErrorKind,
    message: String,
    property: Option<String>,
    params: Option<String>,
}

impl Error {
    /// A new error of `kind` with a rendered `message`.
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> Self {
        Error {
            kind,
            message: message.into(),
            property: None,
            params: None,
        }
    }

    /// No catalog entry named `name`.
    pub fn unknown_property(name: &str) -> Self {
        Error::new(
            ErrorKind::UnknownProperty,
            format!("unknown property function {}", quote(name)),
        )
    }

    /// A parameter assignment the catalog rejects.
    pub fn invalid_param(message: impl Into<String>) -> Self {
        Error::new(ErrorKind::InvalidParam, message)
    }

    /// A fuzz scenario failing validation or deserialization.
    pub fn scenario(message: impl Into<String>) -> Self {
        Error::new(ErrorKind::Scenario, message)
    }

    /// An oracle prediction/check failure.
    pub fn oracle(message: impl Into<String>) -> Self {
        Error::new(ErrorKind::Oracle, message)
    }

    /// A corpus persistence failure.
    pub fn corpus(message: impl Into<String>) -> Self {
        Error::new(ErrorKind::Corpus, message)
    }

    /// A fuzz-campaign failure outside any single scenario.
    pub fn campaign(message: impl Into<String>) -> Self {
        Error::new(ErrorKind::Campaign, message)
    }

    /// An artifact-store failure (I/O, index, or integrity verification).
    pub fn store(message: impl Into<String>) -> Self {
        Error::new(ErrorKind::Store, message)
    }

    /// A report document failing wire-schema validation.
    pub fn report(message: impl Into<String>) -> Self {
        Error::new(ErrorKind::Report, message)
    }

    /// A service request the campaign server rejects.
    pub fn request(message: impl Into<String>) -> Self {
        Error::new(ErrorKind::Request, message)
    }

    /// The stable failure category.
    pub fn kind(&self) -> ErrorKind {
        self.kind
    }

    /// The message without any configuration attribution prefix.
    pub fn message(&self) -> &str {
        &self.message
    }

    /// The property name this error is attributed to, if any.
    pub fn property(&self) -> Option<&str> {
        self.property.as_deref()
    }

    /// The `k=v …` parameter assignment this error is attributed to.
    pub fn params(&self) -> Option<&str> {
        self.params.as_deref()
    }

    /// Attach the configuration (property + parameters, in command-line
    /// `k=v …` syntax) this error arose from. Already-attributed errors
    /// pass through unchanged, so attribution inside a pool-parallel sweep
    /// is applied exactly once however many layers re-wrap the error.
    pub fn in_config(self, property: &str, params: &str) -> Error {
        if self.kind == ErrorKind::Config {
            return self;
        }
        Error {
            kind: ErrorKind::Config,
            message: self.to_string(),
            property: Some(property.to_owned()),
            params: Some(params.to_owned()),
        }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match (&self.property, &self.params) {
            (Some(p), Some(ps)) => write!(f, "property `{p}` ({ps}): {}", self.message),
            (Some(p), None) => write!(f, "property `{p}`: {}", self.message),
            _ => f.write_str(&self.message),
        }
    }
}

impl std::error::Error for Error {}

impl From<TraceIoError> for Error {
    fn from(e: TraceIoError) -> Self {
        let kind = match &e {
            TraceIoError::Format(_) => ErrorKind::TraceFormat,
            TraceIoError::Io(_) => ErrorKind::TraceIo,
        };
        Error::new(kind, e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_have_stable_discriminants() {
        assert_eq!(ErrorKind::UnknownProperty.as_str(), "unknown_property");
        assert_eq!(ErrorKind::Config.as_str(), "config");
        assert_eq!(ErrorKind::TraceFormat.as_str(), "trace_format");
        assert_eq!(ErrorKind::Oracle.as_str(), "oracle");
    }

    #[test]
    fn in_config_attributes_exactly_once() {
        let err = Error::unknown_property("late_sender").in_config("late_sender", "r=3");
        assert_eq!(err.kind(), ErrorKind::Config);
        assert_eq!(err.property(), Some("late_sender"));
        assert_eq!(err.params(), Some("r=3"));
        let msg = err.to_string();
        assert!(msg.contains("late_sender"), "{msg}");
        assert!(msg.contains("r=3"), "{msg}");
        // Idempotent: re-wrapping in a different config changes nothing.
        let rewrapped = err.clone().in_config("other", "x=1");
        assert_eq!(rewrapped, err);
    }

    #[test]
    fn trace_io_errors_map_to_stable_kinds() {
        let fmt: Error = TraceIoError::Format("bad header".into()).into();
        assert_eq!(fmt.kind(), ErrorKind::TraceFormat);
        assert!(fmt.to_string().contains("bad header"));
        let io: Error = TraceIoError::Io(std::io::Error::other("disk")).into();
        assert_eq!(io.kind(), ErrorKind::TraceIo);
    }
}
