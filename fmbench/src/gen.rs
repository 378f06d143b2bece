//! The workload generator. It lives in the benchmark: the system under
//! test only ever sees the accesses produced here, and the same `--seed`
//! always produces the same accesses.
//!
//! (`fleet-256` and `cluster-churn` are the exception the issue sanctions:
//! `HostAgent::run` draws each VM's uniform accesses from RNG streams forked
//! off the seed this generator hands it.)

/// splitmix64 — small, fast, and good enough for uniform page picks.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// An independent stream for a named purpose, so adding a draw to one
    /// stream never shifts another.
    pub fn fork(seed: u64, label: u64) -> Self {
        let mut r = Rng(seed ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49FB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, bound)`; `bound` must be positive.
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64) < p
    }
}

/// One generated guest access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Page index within the workload's region.
    pub page: u64,
    pub write: bool,
}

/// Every 64th access of a benchmark-driven workload is an integrity-checked
/// read: the page's contents must equal what the generator last wrote.
pub const CHECK_EVERY: u64 = 64;

/// The token the generator writes into `page` at its `version`-th write.
/// Never zero, so it cannot be confused with an untouched page.
pub fn token(seed: u64, page: u64, version: u64) -> u64 {
    let mut r = Rng(seed ^ page.wrapping_mul(0xD1B5_4A32_D192_ED03) ^ (version << 48));
    r.next_u64() | 1
}

/// Share of `tuned-phases` pages that are single-byte fills (RLE collapses
/// them to a few bytes); the rest are LCG noise that RLE cannot shrink.
pub const COMPRESSIBLE_PCT: u64 = 60;

/// Whether `page` is one of the compressible pages. 37 is coprime to 100,
/// so every 100 consecutive pages hold exactly `COMPRESSIBLE_PCT`
/// compressible ones, interleaved rather than clustered.
pub fn compressible(page: u64) -> bool {
    (page * 37) % 100 < COMPRESSIBLE_PCT
}

/// The real 4 KB contents of `page` for the byte-level workload.
pub fn page_bytes(seed: u64, page: u64, page_size: usize) -> Vec<u8> {
    if compressible(page) {
        return vec![(page % 251) as u8 + 1; page_size];
    }
    let mut x = seed ^ page.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1B5_4A32_D192_ED03;
    (0..page_size)
        .map(|_| {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (x >> 33) as u8
        })
        .collect()
}

/// FNV-1a over a byte page — the ledger stores this instead of 4 KB per
/// page. Identical to the fingerprint the repository computes for a
/// byte-level page, so a read-back is compared without copying it.
pub fn fingerprint(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_forks_differ() {
        let draw = |mut r: Rng| (0..8).map(|_| r.next_u64()).collect::<Vec<_>>();
        assert_eq!(draw(Rng::new(7)), draw(Rng::new(7)));
        assert_ne!(draw(Rng::new(7)), draw(Rng::new(8)));
        assert_ne!(draw(Rng::fork(7, 1)), draw(Rng::fork(7, 2)));
    }

    #[test]
    fn below_stays_in_range_and_covers_it() {
        let mut r = Rng::new(1);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            seen[r.below(10) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn chance_tracks_its_probability() {
        let mut r = Rng::new(3);
        let hits = (0..100_000).filter(|_| r.chance(0.3)).count();
        assert!((29_000..31_000).contains(&hits), "{hits}");
    }

    #[test]
    fn compressible_share_is_exact_per_hundred_pages() {
        for base in [0, 100, 4200] {
            let n = (base..base + 100).filter(|&p| compressible(p)).count() as u64;
            assert_eq!(n, COMPRESSIBLE_PCT);
        }
    }

    #[test]
    fn page_bytes_are_deterministic_and_of_two_kinds() {
        let fill = (0..100).find(|&p| compressible(p)).unwrap();
        let noise = (0..100).find(|&p| !compressible(p)).unwrap();
        let f = page_bytes(42, fill, 4096);
        assert!(f.iter().all(|&b| b == f[0]) && f[0] != 0);
        let n = page_bytes(42, noise, 4096);
        assert_eq!(n, page_bytes(42, noise, 4096));
        assert_ne!(n, page_bytes(43, noise, 4096));
        assert_ne!(fingerprint(&f), fingerprint(&n));
    }

    #[test]
    fn tokens_are_never_zero_and_change_per_version() {
        assert_ne!(token(1, 2, 0), 0);
        assert_ne!(token(1, 2, 0), token(1, 2, 1));
        assert_ne!(token(1, 2, 0), token(1, 3, 0));
    }
}
