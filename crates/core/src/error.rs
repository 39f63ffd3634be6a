//! Structured construction errors for the RBCD unit.
//!
//! Scene-facing constructors ([`crate::Zeb::new`], [`crate::FfStack::new`],
//! [`crate::RbcdUnit::new`]) return these instead of panicking, so a host
//! application feeding untrusted configuration degrades gracefully.

use std::error::Error;
use std::fmt;

/// A rejected RBCD-unit configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RbcdError {
    /// ZEB list capacity `M` was zero; the hardware needs at least one
    /// element slot per pixel list.
    ZeroListCapacity,
    /// The ZEB was configured with zero pixel lists (a zero-sized tile).
    ZeroLists,
    /// The unit was configured with zero ZEB buffers.
    ZeroZebCount,
    /// FF-Stack capacity `T` was zero; the Z-overlap scan needs at least
    /// one front-face slot.
    ZeroStackCapacity,
}

impl fmt::Display for RbcdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::ZeroListCapacity => write!(f, "ZEB list capacity must be positive"),
            Self::ZeroLists => write!(f, "ZEB must have at least one list"),
            Self::ZeroZebCount => write!(f, "RBCD unit needs at least one ZEB"),
            Self::ZeroStackCapacity => write!(f, "FF-Stack capacity must be positive"),
        }
    }
}

impl Error for RbcdError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_component() {
        assert!(RbcdError::ZeroListCapacity.to_string().contains("ZEB"));
        assert!(RbcdError::ZeroStackCapacity.to_string().contains("FF-Stack"));
    }
}
