//! Tunables of the PM-octree (§3 defaults).

/// `threshold_DRAM` (§3.2): merge a least-frequently-accessed C0 subtree
/// out to C1 when C0 holds more than this fraction of its capacity.
pub(crate) const THRESHOLD_DRAM: f64 = 0.9;

/// `threshold_NVBM` (§3.2): run GC on demand when the NVBM free fraction
/// drops below this.
pub(crate) const THRESHOLD_NVBM: f64 = 0.1;

/// `T_transform` (§3.3, "set empirically"): re-layout when the hottest
/// NVBM subtree's access frequency exceeds the coldest DRAM subtree's by
/// this factor.
pub(crate) const T_TRANSFORM: f64 = 1.5;

/// Configuration for a [`PmOctree`](crate::api::PmOctree).
///
/// `PartialEq` lets recovery paths assert that a restored tree runs
/// under the exact config it crashed with.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PmConfig {
    /// DRAM capacity reserved for the C0 tree, in octants (the paper
    /// configures this in GB — 8 GB default; we configure in octants:
    /// `bytes / 128`). C0 evicts above `threshold_DRAM` (0.9) of it.
    pub c0_capacity_octants: usize,
    /// Number of octants sampled per subtree by feature-directed sampling;
    /// the effective count is `min(n_sample, subtree_size)` (§3.3).
    pub n_sample: usize,
    /// Enable the dynamic layout transformation (§3.3). Off reproduces
    /// the "without transformation" arm of Fig. 11.
    pub dynamic_transform: bool,
    /// Seed new DRAM subtrees on first refinement at eligible levels
    /// (first-come-first-served placement — the "brute-force" layout the
    /// paper contrasts with the feature-directed one). Disable to study
    /// transformation in isolation.
    pub seed_c0: bool,
    /// Keep remote replicas of `V_{i-1}` (§3.4, user-enabled feature).
    pub replicas: bool,
}

impl Default for PmConfig {
    fn default() -> Self {
        PmConfig {
            c0_capacity_octants: 64 * 1024,
            n_sample: 100,
            dynamic_transform: true,
            seed_c0: true,
            replicas: false,
        }
    }
}

impl PmConfig {
    /// Validating builder, starting from [`PmConfig::default`]. Prefer
    /// this over field-literal construction: [`PmConfigBuilder::build`]
    /// rejects configurations the runtime would silently misbehave under
    /// (zero DRAM capacity, a zero sampling rate).
    pub fn builder() -> PmConfigBuilder {
        PmConfigBuilder { cfg: PmConfig::default() }
    }
}

/// Builder for [`PmConfig`]; see [`PmConfig::builder`].
#[derive(Clone, Copy, Debug)]
pub struct PmConfigBuilder {
    cfg: PmConfig,
}

impl PmConfigBuilder {
    /// DRAM (C0) capacity in octants.
    pub fn c0_capacity_octants(mut self, n: usize) -> Self {
        self.cfg.c0_capacity_octants = n;
        self
    }

    /// Octants sampled per subtree by feature-directed sampling (≥ 1).
    pub fn n_sample(mut self, n: usize) -> Self {
        self.cfg.n_sample = n;
        self
    }

    /// Enable/disable the §3.3 dynamic layout transformation.
    pub fn dynamic_transform(mut self, on: bool) -> Self {
        self.cfg.dynamic_transform = on;
        self
    }

    /// Enable/disable first-refinement C0 seeding.
    pub fn seed_c0(mut self, on: bool) -> Self {
        self.cfg.seed_c0 = on;
        self
    }

    /// Keep remote replicas of `V_{i-1}`.
    pub fn replicas(mut self, on: bool) -> Self {
        self.cfg.replicas = on;
        self
    }

    /// Validate and produce the config. Violations come back as
    /// [`PmError::Recovery`](crate::PmError::Recovery) naming the field.
    pub fn build(self) -> Result<PmConfig, crate::api::PmError> {
        use crate::api::PmError;
        let c = self.cfg;
        if c.c0_capacity_octants == 0 {
            return Err(PmError::Recovery("c0_capacity_octants must be nonzero".into()));
        }
        if c.n_sample == 0 {
            return Err(PmError::Recovery("n_sample must be at least 1".into()));
        }
        Ok(c)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn defaults_sane() {
        let c = PmConfig::default();
        assert_eq!((c.c0_capacity_octants, c.n_sample), (64 * 1024, 100));
    }

    #[test]
    fn builder_accepts_defaults_and_setters() {
        let c = PmConfig::builder().build().unwrap();
        assert_eq!(c, PmConfig::default());
        let c = PmConfig::builder()
            .c0_capacity_octants(8192)
            .n_sample(10)
            .dynamic_transform(false)
            .seed_c0(false)
            .replicas(true)
            .build()
            .unwrap();
        assert_eq!(c.c0_capacity_octants, 8192);
        assert_eq!(c.n_sample, 10);
        assert!(c.replicas);
        assert!(!c.dynamic_transform && !c.seed_c0);
    }

    #[test]
    fn builder_rejects_out_of_range() {
        use crate::api::PmError;
        let bad = [
            PmConfig::builder().c0_capacity_octants(0).build(),
            PmConfig::builder().n_sample(0).build(),
        ];
        for b in bad {
            assert!(matches!(b, Err(PmError::Recovery(_))), "{b:?}");
        }
    }
}
