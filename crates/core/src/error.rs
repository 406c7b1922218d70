//! Error type of the core mechanism crate.

use mec_gap::GapError;

use crate::model::ProviderId;

/// Errors produced by the caching mechanisms (`Appro` / `LCF`) and the
/// churn simulation.
///
/// Hot paths report failures through this type instead of panicking, so a
/// caller embedding the mechanisms in a long-running service can degrade
/// gracefully (e.g. keep the previous configuration when a replan fails).
#[derive(Debug, Clone, PartialEq)]
pub enum CacheError {
    /// A provider fits in no cloudlet and may not stay remote.
    NoFeasiblePlacement {
        /// The stranded provider.
        provider: ProviderId,
    },
    /// The market as a whole cannot host every provider.
    Infeasible,
    /// A churn arrival named a provider that is already active.
    AlreadyActive {
        /// The doubly-arriving provider.
        provider: ProviderId,
    },
    /// A churn departure named a provider that is not active.
    NotActive {
        /// The absent provider.
        provider: ProviderId,
    },
}

/// Former name of [`CacheError`], kept so existing call sites and examples
/// continue to compile.
pub type CoreError = CacheError;

impl std::fmt::Display for CacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheError::NoFeasiblePlacement { provider } => {
                write!(f, "provider {provider} has no feasible placement")
            }
            CacheError::Infeasible => write!(f, "market cannot host every provider"),
            CacheError::AlreadyActive { provider } => {
                write!(f, "churn arrival: {provider} is already active")
            }
            CacheError::NotActive { provider } => {
                write!(f, "churn departure: {provider} is not active")
            }
        }
    }
}

impl std::error::Error for CacheError {}

impl From<GapError> for CacheError {
    fn from(e: GapError) -> Self {
        match e {
            GapError::ItemDoesNotFit { item } => CacheError::NoFeasiblePlacement {
                provider: ProviderId(item),
            },
            GapError::Infeasible => CacheError::Infeasible,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e = CacheError::NoFeasiblePlacement {
            provider: ProviderId(3),
        };
        assert!(e.to_string().contains("sp3"));
        assert!(CacheError::Infeasible.to_string().contains("market"));
        let e = CacheError::AlreadyActive {
            provider: ProviderId(1),
        };
        assert!(e.to_string().contains("already active"));
        let e = CacheError::NotActive {
            provider: ProviderId(2),
        };
        assert!(e.to_string().contains("not active"));
    }

    #[test]
    fn from_gap_error() {
        let e: CacheError = GapError::ItemDoesNotFit { item: 2 }.into();
        assert_eq!(
            e,
            CacheError::NoFeasiblePlacement {
                provider: ProviderId(2)
            }
        );
        let e: CacheError = GapError::Infeasible.into();
        assert_eq!(e, CacheError::Infeasible);
    }

    #[test]
    fn core_error_alias_still_names_the_type() {
        let e: CoreError = CacheError::Infeasible;
        assert_eq!(e, CacheError::Infeasible);
    }
}
