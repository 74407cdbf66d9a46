//! Output digests pinned per workload and seed. The default seed is the
//! one runs use without `--seed`; the held-out seed is kept for checking a
//! later performance claim on inputs not used while it was made.

pub const DEFAULT_SEED: u64 = 1;
pub const HELD_OUT_SEED: u64 = 2;

/// `(workload, seed, digest)`. `scale-ior` pins one digest for both
/// seeds: its seed only shuffles hosts and file ids on a rank-invariant
/// machine, which must not change any result.
const PINS: &[(&str, u64, u64)] = &[
    ("btio-simple", DEFAULT_SEED, 0x0f35_a09a_22ee_4e95),
    ("btio-simple", HELD_OUT_SEED, 0x1757_0fa3_fa75_85fc),
    ("charact-sweep", DEFAULT_SEED, 0x7fa3_62fc_1ff8_6223),
    ("charact-sweep", HELD_OUT_SEED, 0xec0c_58b8_3255_1b18),
    ("scenario-grid", DEFAULT_SEED, 0xea74_ec18_7dcc_e693),
    ("scenario-grid", HELD_OUT_SEED, 0xe3ae_2245_853e_a266),
    ("scale-ior", DEFAULT_SEED, 0x698a_5e9a_dbb5_a96e),
    ("scale-ior", HELD_OUT_SEED, 0x698a_5e9a_dbb5_a96e),
];

/// The pinned digest of `workload` on `seed`, if there is one.
pub fn pin(workload: &str, seed: u64) -> Option<u64> {
    PINS.iter()
        .find(|&&(w, s, _)| w == workload && s == seed)
        .map(|&(_, _, d)| d)
}
