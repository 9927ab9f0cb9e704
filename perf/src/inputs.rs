//! Seed → inputs. The program under test receives only what is built
//! here; the same seed always gives the same inputs.

use pmoctree_solver::SimConfig;

/// Deterministic xorshift64* stream.
pub struct Rng(u64);

impl Rng {
    /// Stream `stream` of seed `seed` (splitmix64 of both, never zero).
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut z = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)) | 1)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[-1, 1)`.
    fn next_signed(&mut self) -> f64 {
        2.0 * self.next_f64() - 1.0
    }
}

/// Problem sizes. `full()` is what `BENCHMARK.json` measures; `quick()`
/// finishes in seconds and its numbers are not for comparison.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// `--quick`?
    pub quick: bool,
    /// Maximum refinement level of every mesh workload.
    pub level: u8,
    /// `droplet_l9`: time steps of a pass and arena bytes.
    pub droplet_steps: usize,
    /// Arena of the single-rank droplet run.
    pub droplet_arena: usize,
    /// `cluster_r8_l9`: ranks, BSP steps, arena bytes per rank.
    pub ranks: usize,
    /// BSP steps of the cluster run.
    pub cluster_steps: usize,
    /// Arena per cluster rank.
    pub rank_arena: usize,
    /// `service_zipf`: tenants, commands, arena bytes.
    pub tenants: usize,
    /// Commands submitted in the measured window.
    pub commands: usize,
    /// Arena of the state service.
    pub service_arena: usize,
    /// `restart_l9`: crash/restore cycles, persisted steps, refined sample.
    pub cycles: usize,
    /// Steps persisted before the first crash.
    pub restart_steps: usize,
    /// Leaves refined (un-persisted) before every crash.
    pub restart_sample: usize,
    /// Arena of the restart run.
    pub restart_arena: usize,
    /// Micro-ladder batch: Morton keys and NVBM lines.
    pub ladder_keys: usize,
    /// Level of the persisted tree the `pm-octree` ladder runs on.
    pub ladder_level: u8,
}

impl Scale {
    /// Paper-scale sizes (level 9, 1 024 tenants).
    pub fn full() -> Scale {
        Scale {
            quick: false,
            level: 9,
            droplet_steps: 2,
            droplet_arena: 512 << 20,
            ranks: 8,
            cluster_steps: 1,
            rank_arena: 64 << 20,
            tenants: 1024,
            commands: 400_000,
            service_arena: 32 << 20,
            cycles: 24,
            restart_steps: 3,
            restart_sample: 512,
            restart_arena: 128 << 20,
            ladder_keys: 1 << 20,
            ladder_level: 7,
        }
    }

    /// Seconds-scale sizes for `check.sh` and the unit tests.
    pub fn quick() -> Scale {
        Scale {
            quick: true,
            level: 6,
            droplet_steps: 10,
            droplet_arena: 64 << 20,
            ranks: 4,
            cluster_steps: 3,
            rank_arena: 16 << 20,
            tenants: 64,
            commands: 20_000,
            service_arena: 8 << 20,
            cycles: 2,
            restart_steps: 3,
            restart_sample: 64,
            restart_arena: 32 << 20,
            ladder_keys: 1 << 14,
            ladder_level: 5,
        }
    }
}

/// The droplet configuration of a mesh workload, jittered by `seed`:
/// `t0 ± 0.001`, `dt ± 0.5 %`, `band_cells ± 0.5 %`. The amplitudes are
/// small on purpose: every seed is to measure the same stretch of the run
/// (the first steps after the initial mesh, well before the pinch-off at
/// `t = 0.45`), and the two deterministic metrics may spread across seeds
/// by no more than a third of their 5 % bound.
pub fn sim_config(seed: u64, level: u8, steps: usize) -> SimConfig {
    let mut rng = Rng::new(seed, 1);
    let base = SimConfig::default();
    SimConfig {
        steps,
        max_level: level,
        base_level: 2,
        t0: base.t0 + 0.001 * rng.next_signed(),
        dt: base.dt * (1.0 + 0.005 * rng.next_signed()),
        band_cells: base.band_cells * (1.0 + 0.005 * rng.next_signed()),
        ..base
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_to_inputs_is_pure() {
        assert_eq!(sim_config(7, 9, 10), sim_config(7, 9, 10));
        assert_ne!(sim_config(7, 9, 10), sim_config(8, 9, 10));
        let draw = |seed, stream| {
            let mut r = Rng::new(seed, stream);
            (0..4).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1, 2), draw(1, 2));
        assert_ne!(draw(1, 2), draw(1, 3));
        assert_ne!(draw(1, 2), draw(2, 2));
    }

    #[test]
    fn jitter_stays_within_its_amplitudes() {
        let base = SimConfig::default();
        for seed in 0..200 {
            let c = sim_config(seed, 9, 10);
            assert!((c.t0 - base.t0).abs() <= 0.001, "seed {seed}: {c:?}");
            assert!((c.dt / base.dt - 1.0).abs() <= 0.005 + 1e-12, "seed {seed}: {c:?}");
            assert!((c.band_cells / base.band_cells - 1.0).abs() <= 0.005 + 1e-12);
        }
    }
}
