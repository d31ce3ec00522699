//! Error type for policy generation.

use ramsis_mdp::MdpError;

/// Errors produced while generating a RAMSIS policy.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// A configuration parameter was out of range or inconsistent.
    InvalidConfig(String),
    /// The profile cannot serve the configured SLO at all (no model
    /// meets the latency target even at batch size 1).
    Infeasible(String),
    /// The assembled MDP failed validation.
    Mdp(MdpError),
    /// A simulation run stopped before completing because its
    /// checkpoint recorder asked it to (a simulated kill, or a failed
    /// checkpoint write) after `events_done` processed events.
    Interrupted {
        /// Heap events the run had fully processed when it stopped.
        events_done: u64,
    },
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            CoreError::Infeasible(msg) => write!(f, "infeasible problem: {msg}"),
            CoreError::Mdp(e) => write!(f, "MDP construction failed: {e}"),
            CoreError::Interrupted { events_done } => {
                write!(f, "run interrupted after {events_done} events")
            }
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Mdp(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MdpError> for CoreError {
    fn from(e: MdpError) -> Self {
        CoreError::Mdp(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = CoreError::InvalidConfig("workers must be positive".into());
        assert!(e.to_string().contains("workers must be positive"));
        let e = CoreError::Infeasible("SLO too tight".into());
        assert!(e.to_string().contains("SLO too tight"));
    }

    #[test]
    fn mdp_errors_chain() {
        use std::error::Error;
        let e = CoreError::from(MdpError::Empty);
        assert!(e.source().is_some());
        assert!(e.to_string().contains("MDP"));
    }
}
