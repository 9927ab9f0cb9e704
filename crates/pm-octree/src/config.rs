//! Tunables of the PM-octree (§3 defaults).

/// Configuration for a [`PmOctree`](crate::api::PmOctree).
///
/// `PartialEq` lets recovery paths assert that a restored tree runs
/// under the exact config it crashed with.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PmConfig {
    /// DRAM capacity reserved for the C0 tree, in octants (the paper
    /// configures this in GB — 8 GB default; we configure in octants:
    /// `bytes / 128`).
    pub c0_capacity_octants: usize,
    /// Merge a least-frequently-accessed C0 subtree out to C1 when C0
    /// holds more than this fraction of its capacity
    /// (`threshold_DRAM` in §3.2).
    pub threshold_dram: f64,
    /// Run GC on demand when the NVBM free fraction drops below this
    /// (`threshold_NVBM` in §3.2).
    pub threshold_nvbm: f64,
    /// Number of octants sampled per subtree by feature-directed sampling;
    /// the effective count is `min(n_sample, subtree_size)` (§3.3).
    pub n_sample: usize,
    /// Transformation threshold `T_transform`: re-layout when the hottest
    /// NVBM subtree's access frequency exceeds the coldest DRAM subtree's
    /// by this factor (§3.3, "set empirically").
    pub t_transform: f64,
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
            threshold_dram: 0.9,
            threshold_nvbm: 0.1,
            n_sample: 100,
            t_transform: 1.5,
            dynamic_transform: true,
            seed_c0: true,
            replicas: false,
        }
    }
}

impl PmConfig {
    /// Express the C0 capacity as simulated DRAM bytes (128 B/octant).
    pub fn c0_capacity_bytes(&self) -> usize {
        self.c0_capacity_octants * crate::octant::OCTANT_SIZE
    }

    /// Validating builder, starting from [`PmConfig::default`]. Prefer
    /// this over field-literal construction: [`PmConfigBuilder::build`]
    /// rejects configurations the runtime would silently misbehave under
    /// (zero DRAM capacity, thresholds outside their ranges, a zero
    /// sampling rate).
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

    /// DRAM (C0) capacity in bytes (128 B/octant).
    pub fn c0_capacity_bytes(mut self, bytes: usize) -> Self {
        self.cfg.c0_capacity_octants = bytes / crate::octant::OCTANT_SIZE;
        self
    }

    /// `threshold_DRAM`: C0 eviction high-water fraction, in `(0, 1]`.
    pub fn threshold_dram(mut self, v: f64) -> Self {
        self.cfg.threshold_dram = v;
        self
    }

    /// `threshold_NVBM`: on-demand GC low-water free fraction, in `[0, 1)`.
    pub fn threshold_nvbm(mut self, v: f64) -> Self {
        self.cfg.threshold_nvbm = v;
        self
    }

    /// Octants sampled per subtree by feature-directed sampling (≥ 1).
    pub fn n_sample(mut self, n: usize) -> Self {
        self.cfg.n_sample = n;
        self
    }

    /// Transformation threshold `T_transform` (must exceed 1).
    pub fn t_transform(mut self, v: f64) -> Self {
        self.cfg.t_transform = v;
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
        if !(c.threshold_dram > 0.0 && c.threshold_dram <= 1.0) {
            return Err(PmError::Recovery(format!(
                "threshold_dram {} outside (0, 1]",
                c.threshold_dram
            )));
        }
        if !(0.0..1.0).contains(&c.threshold_nvbm) {
            return Err(PmError::Recovery(format!(
                "threshold_nvbm {} outside [0, 1)",
                c.threshold_nvbm
            )));
        }
        if c.n_sample == 0 {
            return Err(PmError::Recovery("n_sample must be at least 1".into()));
        }
        // `<= 1.0` would accept NaN; an explicit partial_cmp rejects it.
        if c.t_transform.partial_cmp(&1.0) != Some(std::cmp::Ordering::Greater) {
            return Err(PmError::Recovery(format!(
                "t_transform {} must exceed 1 (a ratio at which a swap pays off)",
                c.t_transform
            )));
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
        assert!(c.threshold_dram > 0.0 && c.threshold_dram <= 1.0);
        assert!(c.threshold_nvbm >= 0.0 && c.threshold_nvbm < 1.0);
        assert_eq!(c.n_sample, 100);
        assert!(c.t_transform > 1.0);
    }

    #[test]
    fn c0_bytes_roundtrip() {
        let c = PmConfig::builder().c0_capacity_bytes(1 << 20).build().unwrap();
        assert_eq!(c.c0_capacity_octants, (1 << 20) / 128);
        assert_eq!(c.c0_capacity_bytes(), 1 << 20);
    }

    #[test]
    fn builder_accepts_defaults_and_setters() {
        let c = PmConfig::builder().build().unwrap();
        assert_eq!(c.n_sample, PmConfig::default().n_sample);
        let c = PmConfig::builder()
            .c0_capacity_bytes(1 << 20)
            .threshold_dram(0.5)
            .threshold_nvbm(0.2)
            .n_sample(10)
            .t_transform(2.0)
            .dynamic_transform(false)
            .seed_c0(false)
            .replicas(true)
            .build()
            .unwrap();
        assert_eq!(c.c0_capacity_octants, (1 << 20) / 128);
        assert!(c.replicas);
        assert!(!c.dynamic_transform && !c.seed_c0);
    }

    #[test]
    fn builder_rejects_out_of_range() {
        use crate::api::PmError;
        let bad = [
            PmConfig::builder().c0_capacity_octants(0).build(),
            PmConfig::builder().threshold_dram(0.0).build(),
            PmConfig::builder().threshold_dram(1.5).build(),
            PmConfig::builder().threshold_nvbm(1.0).build(),
            PmConfig::builder().threshold_nvbm(-0.1).build(),
            PmConfig::builder().n_sample(0).build(),
            PmConfig::builder().t_transform(1.0).build(),
            PmConfig::builder().threshold_dram(f64::NAN).build(),
        ];
        for b in bad {
            assert!(matches!(b, Err(PmError::Recovery(_))), "{b:?}");
        }
    }
}
