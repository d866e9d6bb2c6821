//! The six Pictor-suite benchmarks (Table 1 of the paper).

use core::fmt;

/// A cloud-3D benchmark from the Pictor suite.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Benchmark {
    /// SuperTuxKart — racing game.
    SuperTuxKart,
    /// 0 A.D. — real-time strategy game.
    ZeroAd,
    /// Red Eclipse — first-person shooter.
    RedEclipse,
    /// DoTA 2 — battle-arena game.
    Dota2,
    /// InMind — VR game.
    InMind,
    /// IMHOTEP — health-training VR application.
    Imhotep,
}

impl Benchmark {
    /// Every benchmark, in the paper's Table 1 order.
    pub const ALL: [Benchmark; 6] = [
        Benchmark::SuperTuxKart,
        Benchmark::ZeroAd,
        Benchmark::RedEclipse,
        Benchmark::Dota2,
        Benchmark::InMind,
        Benchmark::Imhotep,
    ];

    /// The paper's short label (STK, 0AD, RE, D2, IM, ITP).
    #[must_use]
    pub fn short(self) -> &'static str {
        match self {
            Benchmark::SuperTuxKart => "STK",
            Benchmark::ZeroAd => "0AD",
            Benchmark::RedEclipse => "RE",
            Benchmark::Dota2 => "D2",
            Benchmark::InMind => "IM",
            Benchmark::Imhotep => "ITP",
        }
    }

    /// The full application name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::SuperTuxKart => "SuperTuxKart",
            Benchmark::ZeroAd => "0 A.D.",
            Benchmark::RedEclipse => "Red Eclipse",
            Benchmark::Dota2 => "DoTA 2",
            Benchmark::InMind => "InMind",
            Benchmark::Imhotep => "IMHOTEP",
        }
    }

    /// A stable per-benchmark id used to derive RNG streams.
    #[must_use]
    pub fn stream_id(self) -> u64 {
        match self {
            Benchmark::SuperTuxKart => 1,
            Benchmark::ZeroAd => 2,
            Benchmark::RedEclipse => 3,
            Benchmark::Dota2 => 4,
            Benchmark::InMind => 5,
            Benchmark::Imhotep => 6,
        }
    }
}

impl fmt::Display for Benchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.short())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_contains_six_unique() {
        let mut shorts: Vec<&str> = Benchmark::ALL.iter().map(|b| b.short()).collect();
        shorts.sort_unstable();
        shorts.dedup();
        assert_eq!(shorts.len(), 6);
    }

    #[test]
    fn stream_ids_unique() {
        let mut ids: Vec<u64> = Benchmark::ALL.iter().map(|b| b.stream_id()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 6);
    }

    #[test]
    fn display_is_short() {
        assert_eq!(Benchmark::ZeroAd.to_string(), "0AD");
    }
}
