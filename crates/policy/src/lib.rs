//! The policy module of the framework (paper §II.2, §III).
//!
//! “A policy is a rule-based strategy for mapping the reputation score of a
//! client to the appropriate puzzle difficulty. … a network administrator
//! may specify a policy based on her specific security needs.”
//!
//! This crate provides:
//!
//! - the [`Policy`] trait — score in, difficulty out, with a
//!   [`PolicyContext`] carrying server conditions for adaptive policies;
//! - the paper's three evaluated policies:
//!   [`LinearPolicy::policy1`] (`d = R + 1`),
//!   [`LinearPolicy::policy2`] (`d = R + 5`), and
//!   [`ErrorRangePolicy`] (Policy 3: error-range randomized mapping);
//! - extensions: [`StepPolicy`] tiers, [`PowerPolicy`] curvature, and
//!   [`LoadAdaptivePolicy`] server-load coupling;
//! - an administrator **rule DSL** ([`dsl`]) so policies can be specified
//!   as text in configuration, exactly as the paper envisions;
//! - a [`registry`] resolving textual policy specs (`"policy2"`,
//!   `"policy3:eps=2.5"`, or full DSL source) into boxed policies;
//! - [`routing`]: a [`BackendRouter`] picks which *puzzle backend* a
//!   client gets (score past a threshold → the memory-hard puzzle),
//!   complementing the difficulty mapping.
//!
//! # Example
//!
//! ```
//! use aipow_policy::{LinearPolicy, Policy, PolicyContext};
//! use aipow_reputation::ReputationScore;
//!
//! let policy = LinearPolicy::policy2();
//! let score = ReputationScore::new(10.0)?;
//! let d = policy.difficulty_for(score, &PolicyContext::default());
//! assert_eq!(d.bits(), 15); // R=10 → 15-difficult, paper §III.A
//! # Ok::<(), aipow_reputation::score::ScoreRangeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod context;
pub mod dsl;
pub mod error_range;
pub mod linear;
pub mod power;
pub mod registry;
pub mod routing;
pub mod step;

pub use adaptive::LoadAdaptivePolicy;
pub use context::PolicyContext;
pub use error_range::ErrorRangePolicy;
pub use linear::LinearPolicy;
pub use power::PowerPolicy;
pub use routing::{BackendRouter, Sha256Router, ThresholdRouter};
pub use step::StepPolicy;

use aipow_pow::Difficulty;
use aipow_reputation::ReputationScore;

/// A rule-based strategy mapping a reputation score to puzzle difficulty.
///
/// Implementations must be thread-safe: one policy instance serves the
/// whole admission pipeline. Policies that randomize (Policy 3) use
/// interior mutability for their RNG.
pub trait Policy: Send + Sync + core::fmt::Debug {
    /// A short, stable identifier for reports and configuration.
    fn name(&self) -> &str;

    /// Maps `score` to a puzzle difficulty under server conditions `ctx`.
    fn difficulty_for(&self, score: ReputationScore, ctx: &PolicyContext) -> Difficulty;
}

impl<P: Policy + ?Sized> Policy for Box<P> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn difficulty_for(&self, score: ReputationScore, ctx: &PolicyContext) -> Difficulty {
        (**self).difficulty_for(score, ctx)
    }
}

impl<P: Policy + ?Sized> Policy for std::sync::Arc<P> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn difficulty_for(&self, score: ReputationScore, ctx: &PolicyContext) -> Difficulty {
        (**self).difficulty_for(score, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boxed_and_arc_policies_delegate() {
        let boxed: Box<dyn Policy> = Box::new(LinearPolicy::policy1());
        assert_eq!(boxed.name(), "policy1");
        let arced: std::sync::Arc<dyn Policy> = std::sync::Arc::new(LinearPolicy::policy2());
        let d = arced.difficulty_for(
            ReputationScore::new(0.0).unwrap(),
            &PolicyContext::default(),
        );
        assert_eq!(d.bits(), 5);
    }
}
