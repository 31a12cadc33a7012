//! Server conditions available to adaptive policies.

/// A snapshot of server conditions at decision time.
///
/// The paper's three policies ignore context; the adaptive extensions
/// (e.g. [`LoadAdaptivePolicy`](crate::LoadAdaptivePolicy)) raise
/// difficulty when the server is loaded or an attack has been declared.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyContext {
    /// Server load in `[0, 1]` (e.g. in-flight requests / capacity).
    pub server_load: f64,
    /// Whether the deployment has declared an active attack.
    pub under_attack: bool,
    /// Decision time, milliseconds since the Unix epoch (0 if unknown).
    pub now_ms: u64,
}

impl Default for PolicyContext {
    fn default() -> Self {
        PolicyContext {
            server_load: 0.0,
            under_attack: false,
            now_ms: 0,
        }
    }
}

impl PolicyContext {
    /// A context with the given load, clamped into `[0, 1]`.
    pub fn with_load(load: f64) -> Self {
        PolicyContext {
            server_load: if load.is_nan() {
                0.0
            } else {
                load.clamp(0.0, 1.0)
            },
            ..Default::default()
        }
    }

    /// Returns the context with the attack flag raised.
    pub fn attacked(mut self) -> Self {
        self.under_attack = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_idle() {
        let ctx = PolicyContext::default();
        assert_eq!(ctx.server_load, 0.0);
        assert!(!ctx.under_attack);
    }

    #[test]
    fn with_load_clamps() {
        assert_eq!(PolicyContext::with_load(1.7).server_load, 1.0);
        assert_eq!(PolicyContext::with_load(-0.5).server_load, 0.0);
        assert_eq!(PolicyContext::with_load(f64::NAN).server_load, 0.0);
    }

    #[test]
    fn attacked_sets_flag() {
        assert!(PolicyContext::with_load(0.5).attacked().under_attack);
    }
}
