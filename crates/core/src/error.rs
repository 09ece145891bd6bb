use std::fmt;

use clfp_vm::VmError;

/// Error produced by the limit analyzer.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum AnalyzeError {
    /// The program failed to execute during tracing or profiling.
    Vm(VmError),
    /// The program is structurally unusable (e.g. empty text segment).
    BadProgram(String),
    /// The analysis configuration is invalid (e.g. a zero fetch width).
    BadConfig(String),
}

impl fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalyzeError::Vm(err) => write!(f, "trace execution failed: {err}"),
            AnalyzeError::BadProgram(msg) => write!(f, "unanalyzable program: {msg}"),
            AnalyzeError::BadConfig(msg) => write!(f, "invalid analysis configuration: {msg}"),
        }
    }
}

impl std::error::Error for AnalyzeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AnalyzeError::Vm(err) => Some(err),
            AnalyzeError::BadProgram(_) | AnalyzeError::BadConfig(_) => None,
        }
    }
}

impl From<VmError> for AnalyzeError {
    fn from(err: VmError) -> AnalyzeError {
        AnalyzeError::Vm(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_sources() {
        let err = AnalyzeError::from(VmError::BadPc { pc: 3 });
        assert!(err.to_string().contains("trace execution failed"));
        assert!(std::error::Error::source(&err).is_some());
        let bad = AnalyzeError::BadProgram("empty".into());
        assert!(bad.to_string().contains("unanalyzable"));
        assert!(std::error::Error::source(&bad).is_none());
        let config = AnalyzeError::BadConfig("zero fetch width".into());
        assert!(config
            .to_string()
            .contains("invalid analysis configuration"));
        assert!(std::error::Error::source(&config).is_none());
    }
}
